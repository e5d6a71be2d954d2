from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stta import normalization
from stta.normalization import (
    ChannelStats,
    EmaNormState,
    MemoryNormState,
    StateError,
    batch_channel_stats,
    corrected_stats,
    estimable,
    normalize,
    sampling_variances,
)

from oracles import corrected_stats_mp, normalize_mp, sampling_variances_mp, soft_shrinkage_mp


def populated_state(var, extent=8, count=16, alpha=4.0, mean=None):
    var = np.asarray(var, dtype=np.float64)
    mean = np.zeros_like(var) if mean is None else np.asarray(mean, dtype=np.float64)
    return MemoryNormState(alpha, ChannelStats(mean, var), extent, count)


def shrunk(x: float, lam: float) -> float:
    """sign(x) * max(|x| - lam, 0), the dead-zone operator, through `corrected_stats`: a memory mean of 0 and a
    mean zone of exactly `lam` (variance 2 over extent 1 x count 2 has standard error 1, so the zone is alpha)."""
    state = MemoryNormState(lam, ChannelStats(np.zeros(1), np.full(1, 2.0)), 1, 2)
    return corrected_stats(state, ChannelStats(np.array([x]), np.full(1, 2.0))).mean.item()


class TestSamplingVariances:
    def test_zero_memory_variance(self):
        s2m, s2v = sampling_variances(populated_state([0.0, 0.0]))
        assert np.array_equal(s2m, [0.0, 0.0])
        assert np.array_equal(s2v, [0.0, 0.0])

    def test_direct_evaluation(self):
        s2m, s2v = sampling_variances(populated_state([4.0], extent=8, count=16))
        assert s2m[0] == pytest.approx(0.03125, abs=1e-15)          # 4 / 128
        assert s2v[0] == pytest.approx(32.0 / 127.0, abs=1e-12)     # 2*16 / 127

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            var = rng.uniform(0.0, 10.0, size=6)
            extent = int(rng.integers(1, 12))
            count = int(rng.integers(2, 40))
            s2m, s2v = sampling_variances(populated_state(var, extent, count))
            want_m, want_v = sampling_variances_mp(var, extent, count)
            assert np.max(np.abs(s2m - want_m)) < 1e-12
            assert np.max(np.abs(s2v - want_v)) < 1e-12

    def test_degenerate_denominator(self):
        # n - 1 is the variance's denominator: a value with statistics holds n >= 2 values behind them.
        with pytest.raises(ValueError, match="^spatial_extent x sample_count must be >= 2, got 1 x 1$"):
            MemoryNormState(4.0, ChannelStats(np.zeros(1), np.ones(1)), 1, 1)
        for extent, count, named in ((0, 5, "spatial_extent"), (5, 0, "sample_count"), (-1, -3, "spatial_extent")):
            with pytest.raises(ValueError, match=f"^{named} must be an integer >= 1, got -?[0-9]+$"):
                MemoryNormState(4.0, ChannelStats(np.zeros(1), np.ones(1)), extent, count)

    @pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "boolean"])
    @pytest.mark.parametrize("named", ["spatial_extent", "sample_count"])
    def test_extent_and_count_are_integers(self, named, value):
        # Neither is rounded or read as 1: a value that is not an integer is refused.
        sizes = {"spatial_extent": 4, "sample_count": 4, named: value}
        with pytest.raises(ValueError, match=f"^{named} must be an integer >= 1, got {value!r}$"):
            MemoryNormState(4.0, ChannelStats(np.zeros(1), np.ones(1)), **sizes)

    def test_estimable_is_what_populate_takes(self):
        # The engine asks `estimable` before it builds a value; construction refuses what it calls not estimable.
        for extent in range(-1, 4):
            for count in range(-1, 4):
                state = MemoryNormState()
                try:
                    state = MemoryNormState(4.0, ChannelStats(np.zeros(1), np.ones(1)), extent, count)
                except ValueError:
                    pass
                assert state.populated == estimable(extent, count) == (extent >= 1 and count >= 1
                                                                       and extent * count >= 2)

    def test_unpopulated(self):
        with pytest.raises(StateError):
            sampling_variances(MemoryNormState())


class TestSoftShrinkage:
    """The dead-zone operator, measured as `corrected_stats` applies it to a mean (see `shrunk`)."""

    def test_inside_dead_zone(self):
        assert shrunk(0.5, 1.0) == 0.0

    def test_direct(self):
        assert shrunk(3.0, 1.0) == 2.0

    def test_odd_symmetry(self):
        assert shrunk(-3.0, 1.0) == -2.0

    def test_elementwise_with_per_element_threshold(self):
        # Channels of one state share alpha; variances 2 t^2 over n = 2 give each channel its own zone t.
        t = np.array([1.0, 2.0, 0.5])
        state = MemoryNormState(1.0, ChannelStats(np.zeros(3), 2.0 * t * t), 1, 2)
        out = corrected_stats(state, ChannelStats(np.array([3.0, -3.0, 0.2]), 2.0 * t * t))
        assert np.array_equal(out.mean, [2.0, -1.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
    def test_properties(self, x, lam):
        out = shrunk(x, lam)
        assert out == -shrunk(-x, lam)                    # odd
        assert abs(out) <= abs(x) or x == 0.0             # shrinks
        assert out == pytest.approx(soft_shrinkage_mp(x, lam), abs=1e-9)


class TestCorrectedStats:
    def test_live_equals_memory_is_identity(self):
        state = populated_state([2.0, 3.0], mean=[1.0, -1.0])
        live = ChannelStats(state.memory_stats.mean.copy(), state.memory_stats.var.copy())
        out = corrected_stats(state, live)
        assert np.array_equal(out.mean, live.mean)
        assert np.array_equal(out.var, live.var)

    def test_dead_zone_pins_to_memory(self):
        state = populated_state([4.0], extent=8, count=16, alpha=4.0, mean=[0.0])
        lam = 4.0 * np.sqrt(4.0 / 128.0)
        live = ChannelStats(np.array([lam * 0.99]), np.array([4.0]))
        out = corrected_stats(state, live)
        assert out.mean[0] == 0.0

    def test_outside_dead_zone_lands_lambda_from_live(self):
        state = populated_state([4.0], extent=8, count=16, alpha=4.0, mean=[0.0])
        lam = 4.0 * np.sqrt(4.0 / 128.0)
        live = ChannelStats(np.array([3.0]), np.array([4.0]))
        out = corrected_stats(state, live)
        assert out.mean[0] == pytest.approx(3.0 - lam, abs=1e-15)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            channels = 5
            mem_mean = rng.normal(size=channels)
            mem_var = rng.uniform(0.01, 5.0, size=channels)
            live_mean = rng.normal(size=channels)
            live_var = rng.uniform(0.0, 5.0, size=channels)
            alpha = float(rng.uniform(0.0, 8.0))
            state = populated_state(mem_var, extent=4, count=9, alpha=alpha, mean=mem_mean)
            out = corrected_stats(state, ChannelStats(live_mean, live_var))
            want_mean, want_var = corrected_stats_mp(
                mem_mean, mem_var, live_mean, live_var, 4, 9, alpha)
            assert np.max(np.abs(out.mean - want_mean)) < 1e-10
            assert np.max(np.abs(out.var - want_var)) < 1e-10

    def test_negative_alpha_rejected(self):
        # The dead zone's threshold is alpha times a standard error, so it
        # is non-negative once alpha is; alpha is checked where it enters.
        for alpha in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                MemoryNormState(alpha=alpha)

    def test_variance_clamped_at_zero(self):
        # tiny memory variance, much smaller live variance: raw shrinkage
        # could go negative, the result must not
        state = populated_state([1e-4], extent=2, count=2, alpha=0.0, mean=[0.0])
        out = corrected_stats(state, ChannelStats(np.array([0.0]), np.array([0.0])))
        assert out.var[0] >= 0.0

    def test_saturation_bound(self):
        # corrected mean never ends farther than lambda from the live mean
        rng = np.random.default_rng(2)
        for _ in range(200):
            mem_var = rng.uniform(0.0, 4.0, size=3)
            state = populated_state(mem_var, extent=3, count=7,
                                    alpha=float(rng.uniform(0, 6)),
                                    mean=rng.normal(size=3))
            live = ChannelStats(rng.normal(size=3), rng.uniform(0, 4, size=3))
            out = corrected_stats(state, live)
            lam = state.alpha * np.sqrt(sampling_variances(state)[0])
            assert np.all(np.abs(out.mean - live.mean) <= lam + 1e-12)

    def test_monotone_in_live_mean(self):
        state = populated_state([2.0], extent=8, count=16, alpha=4.0, mean=[0.5])
        grid = np.linspace(-5.0, 5.0, 401)
        outs = [corrected_stats(state, ChannelStats(np.array([g]), np.array([2.0]))).mean[0] for g in grid]
        assert all(b - a >= -1e-12 for a, b in zip(outs, outs[1:]))

    def test_degenerate_sample_size_errors_at_first_use(self):
        # A value from fewer than 2 values is refused, so no state serves a dead zone sized by them.
        state = MemoryNormState()
        with pytest.raises(ValueError, match="must be >= 2"):
            state = MemoryNormState(4.0, ChannelStats(np.zeros(1), np.ones(1)), 1, 1)
        with pytest.raises(StateError):
            corrected_stats(state, batch_channel_stats(np.zeros((1, 1)))[0])

    @pytest.mark.parametrize("name", ["alpha", "memory_stats", "spatial_extent", "sample_count"])
    def test_assigning_a_field_of_a_built_value_raises(self, name):
        state = populated_state([1.0, 2.0], extent=3, count=5)
        with pytest.raises(FrozenInstanceError):
            setattr(state, name, getattr(populated_state([3.0, 4.0], extent=2, count=7, alpha=1.0), name))
        assert (state.alpha, state.spatial_extent, state.sample_count) == (4.0, 3, 5)
        assert np.array_equal(state.memory_stats.var, [1.0, 2.0])

    @pytest.mark.parametrize("alpha", [0.0, 0.75, 4.0, 1e6])
    def test_a_replaced_alpha_serves_as_a_built_one(self, alpha):
        # An engine swaps its configured alpha into layers a checkpoint may already have populated.
        rng = np.random.default_rng(12)
        mem = ChannelStats(rng.normal(size=5), rng.uniform(0.1, 3.0, size=5))
        live = ChannelStats(mem.mean + rng.normal(size=5), mem.var * rng.uniform(0.2, 5.0, size=5))
        state = populated_state(mem.var, extent=3, count=7, alpha=2.0, mean=mem.mean)
        before = corrected_stats(state, live)  # served at alpha 2 first: its dead zone is sized
        got = corrected_stats(replace(state, alpha=alpha), live)
        want = corrected_stats(populated_state(mem.var, extent=3, count=7, alpha=alpha, mean=mem.mean), live)
        assert got.mean.tobytes() == want.mean.tobytes() and got.var.tobytes() == want.var.tobytes()
        assert not np.array_equal(got.mean, before.mean)
        assert corrected_stats(state, live).mean.tobytes() == before.mean.tobytes()  # the original is unchanged

    def test_the_dead_zone_is_sized_once_per_value(self, monkeypatch):
        calls = []
        sizing = normalization.sampling_variances
        monkeypatch.setattr(normalization, "sampling_variances", lambda state: calls.append(1) or sizing(state))
        rng = np.random.default_rng(13)
        live = ChannelStats(rng.normal(size=4), rng.uniform(0.1, 3.0, size=4))
        state = populated_state(rng.uniform(0.1, 3.0, size=4), extent=3, count=5, alpha=4.0)
        assert not calls  # building a value computes no standard error
        for _ in range(3):
            corrected_stats(state, live)
        assert len(calls) == 1  # served batches reuse the zone
        corrected_stats(replace(state, alpha=1.5), live)
        assert len(calls) == 2  # a new value sizes its own


TINY = np.finfo(np.float64).smallest_subnormal


def sign_form_corrected(state, live):
    """`corrected_stats` with the dead zone written as sign(d) * max(|d| - t, 0)."""
    def shrink(d, t):
        return np.sign(d) * np.maximum(np.abs(d) - t, 0.0)

    mem, (se_mean, se_var) = state.memory_stats, (np.sqrt(s2) for s2 in sampling_variances(state))
    return ChannelStats(mem.mean + shrink(live.mean - mem.mean, state.alpha * se_mean),
                        np.maximum(mem.var + shrink(live.var - mem.var, state.alpha * se_var), 0.0))


class TestClampForm:
    """The dead zone is x - clip(x, -t, t); `corrected_stats` equals the sign form byte for byte.

    Outside the dead zone both forms compute the same difference. Inside it the clamp gives x - x = +0.0
    where the sign form gives sign(x) * 0.0, so the two zeros can differ in sign. Added to a memory
    statistic, a zero of either sign changes nothing but a memory mean of -0.0, which becomes +0.0 (the
    variance is clamped by np.maximum(var, 0.0), which gives +0.0 for both zeros). That sign cannot
    reach a result: the corrected mean enters only as `x - mean`, the centred rows `normalize` scales, whose
    output reaches nothing but relu, and relu (`np.maximum(out, 0.0)`) maps both zeros to +0.0
    (`test_the_sign_of_a_zero_mean_does_not_pass_relu`).
    """

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0], ids=["alpha0", "alpha1", "alpha4"])
    @pytest.mark.parametrize("mem_mean", [0.0, -0.0, 1.5, -TINY], ids=["mean+0", "mean-0", "mean1.5", "mean-tiny"])
    @pytest.mark.parametrize("mem_var", [4.0, 0.0, -0.0, TINY], ids=["var4", "var+0", "var-0", "var-tiny"])
    def test_corrected_stats_equal_the_sign_form(self, alpha, mem_mean, mem_var):
        offsets = lambda t: np.array([t, -t, 0.0, -0.0, t / 2, -t / 2, TINY, -TINY, 2 * t + 1.0, -2 * t - 1.0,
                                      np.nextafter(t, np.inf), -np.nextafter(t, np.inf), np.nextafter(t, 0.0)])
        n = len(offsets(1.0))
        # extent 3 x count 1: the variance's standard error sqrt(2 v^2 / 2) is v itself, so |d| == t is exact
        state = MemoryNormState(alpha, ChannelStats(np.full(n, mem_mean), np.full(n, mem_var)), 3, 1)
        t_mean, t_var = (alpha * np.sqrt(s2[0]) for s2 in sampling_variances(state))
        live = ChannelStats(mem_mean + offsets(t_mean), mem_var + offsets(t_var))
        got, want = corrected_stats(state, live), sign_form_corrected(state, live)
        assert got.var.tobytes() == want.var.tobytes()
        moved = got.mean.view(np.uint64) != want.mean.view(np.uint64)
        assert np.array_equal(got.mean, want.mean)
        if moved.any():  # only a memory mean of -0.0 left in the dead zone, now +0.0 (see the class docstring)
            assert mem_mean == 0.0 and np.signbit(mem_mean)
            assert not np.signbit(got.mean[moved]).any() and np.signbit(want.mean[moved]).all()

    def test_the_sign_of_a_zero_mean_does_not_pass_relu(self):
        x = np.array([[-0.0, 0.0, TINY, -TINY, 1.0, -1.0]])  # one channel row
        for gamma in (1.0, -1.0, 0.0, -0.0):
            for beta in (0.0, -0.0, 0.5, -0.5):
                outs = [np.maximum(normalize(x - np.array([[mean]]), np.array([1.0]), np.array([gamma]),
                                             np.array([beta]), 1e-5)[0], 0.0).tobytes() for mean in (0.0, -0.0)]
                assert outs[0] == outs[1]

    def test_soft_shrinkage_gives_plus_zero_in_the_dead_zone(self):
        x = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, TINY, -TINY])
        assert np.array([shrunk(v, 1.0) for v in x]).tobytes() == np.zeros_like(x).tobytes()


def channel_rows(f):
    """The `(C, B*L)` channel rows of a `(B, C, L)` feature map: the layout the forward normalizes."""
    return f.transpose(1, 0, 2).reshape(f.shape[1], -1)


class TestNormalize:
    def test_alpha_zero_equals_batch_norm(self):
        rng = np.random.default_rng(3)
        rows = channel_rows(rng.normal(1.5, 2.0, size=(6, 4, 5)))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        state = populated_state(rng.uniform(0.5, 2.0, size=4), extent=5, count=9,
                                alpha=0.0, mean=rng.normal(size=4))
        live, _ = batch_channel_stats(rows)
        stats = corrected_stats(state, live)
        got, _ = normalize(rows - stats.mean.reshape(-1, 1), stats.var, gamma, beta, 1e-5)
        want = gamma.reshape(-1, 1) * (rows - live.mean.reshape(-1, 1)) \
            / np.sqrt(live.var + 1e-5).reshape(-1, 1) + beta.reshape(-1, 1)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_huge_alpha_equals_memory_norm(self):
        rng = np.random.default_rng(4)
        rows = channel_rows(rng.normal(0.0, 3.0, size=(5, 3, 4)))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        mem_mean, mem_var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        state = populated_state(mem_var, extent=4, count=8, alpha=1e9, mean=mem_mean)
        stats = corrected_stats(state, batch_channel_stats(rows)[0])
        got, _ = normalize(rows - stats.mean.reshape(-1, 1), stats.var, gamma, beta, 1e-5)
        want = gamma.reshape(-1, 1) * (rows - mem_mean.reshape(-1, 1)) \
            / np.sqrt(mem_var + 1e-5).reshape(-1, 1) + beta.reshape(-1, 1)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_dead_zone_fixed_point_bit_identical(self):
        # live within the dead zone on every channel: output must equal raw
        # memory-stat normalization exactly
        rng = np.random.default_rng(5)
        mem_var = rng.uniform(1.0, 2.0, size=3)
        mem_mean = rng.normal(size=3)
        state = populated_state(mem_var, extent=1000, count=1000, alpha=1e6, mean=mem_mean)
        rows = channel_rows(rng.normal(size=(4, 3, 6)) * 0.01 + mem_mean.reshape(1, -1, 1))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        stats = corrected_stats(state, batch_channel_stats(rows)[0])
        got, _ = normalize(rows - stats.mean.reshape(-1, 1), stats.var, gamma, beta, 1e-5)
        # same affine arithmetic, raw memory stats substituted for corrected
        scale = 1.0 / np.sqrt(mem_var + 1e-5).reshape(-1, 1)
        want = gamma.reshape(-1, 1) * (rows - mem_mean.reshape(-1, 1)) * scale + beta.reshape(-1, 1)
        assert np.array_equal(got, want)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(6)
        f = rng.normal(0.5, 1.5, size=(3, 4, 2))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        mem_mean, mem_var = rng.normal(size=4), rng.uniform(0.1, 3.0, size=4)
        state = populated_state(mem_var, extent=2, count=5, alpha=2.0, mean=mem_mean)
        rows = channel_rows(f)
        stats = corrected_stats(state, batch_channel_stats(rows)[0])
        got, _ = normalize(rows - stats.mean.reshape(-1, 1), stats.var, gamma, beta, 1e-5)
        want = channel_rows(np.array(normalize_mp(f.tolist(), list(mem_mean), list(mem_var),
                                                   2, 5, 2.0, list(gamma), list(beta), 1e-5)))
        assert np.max(np.abs(got - want)) < 1e-10

    def test_unpopulated_state_errors(self):
        with pytest.raises(StateError):
            corrected_stats(MemoryNormState(), batch_channel_stats(np.zeros((3, 8)))[0])


class TestEmaNormState:
    def test_first_batch_initializes(self):
        ema = EmaNormState(momentum=0.9)
        stats = ChannelStats(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        out = ema.update(stats)
        assert np.array_equal(out.mean, stats.mean)
        assert np.array_equal(out.var, stats.var)

    def test_blend_weights_current_batch(self):
        ema = EmaNormState(momentum=0.9)
        ema.update(ChannelStats(np.array([0.0]), np.array([1.0])))
        out = ema.update(ChannelStats(np.array([1.0]), np.array([3.0])))
        assert out.mean[0] == pytest.approx(0.9, abs=1e-15)
        assert out.var[0] == pytest.approx(0.1 * 1.0 + 0.9 * 3.0, abs=1e-15)

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            EmaNormState(momentum=0.0)


class TestChannelStats:
    def test_batch_channel_stats_population(self):
        rows = np.array([[1.0, 3.0]])  # one channel, two values
        stats, centered = batch_channel_stats(rows)
        assert stats.mean[0] == 2.0
        assert stats.var[0] == 1.0
        assert np.array_equal(centered, [[-1.0, 1.0]]) and np.array_equal(rows, [[1.0, 3.0]])


def stats_before_rows(f):
    """`batch_channel_stats` as it read before channel rows: sums over the (B, C, L) axes 0 and 2."""
    n = f.shape[0] * f.shape[2]
    mean = np.add.reduce(f, axis=(0, 2)) / n
    centered = f - mean.reshape(1, -1, 1)
    return mean, np.add.reduce(centered * centered, axis=(0, 2)) / n


def serving_before_rows(x, mean, var, gamma, beta, epsilon):
    """`normalize`'s serving result as it read before channel rows, in the layout of the (B, C, L) `x`."""
    inv = 1.0 / np.sqrt(var + epsilon)
    centered = np.subtract(x, mean.reshape(1, -1, 1), order="K")
    return centered * inv.reshape(1, -1, 1) * gamma.reshape(1, -1, 1) + beta.reshape(1, -1, 1)


SHAPES = [(1, 16, 8), (16, 1, 8), (16, 16, 1), (1, 1, 1), (3, 5, 7), (16, 16, 8)]


class TestChannelMajorRows:
    """The statistics reduce along the channel mix's `(C, B*L)` rows, and the serving normalization works
    on centred rows in place. Each gives the bits of the `(B, C, L)` expressions it replaces, evaluated on
    the rows' channel-major `(B, C, L)` view."""

    @staticmethod
    def operands(shape, seed=0):
        rng = np.random.default_rng(seed)
        b, c, length = shape
        x = rng.normal(rng.normal(size=(1, c, 1)) * 50.0, 3.0, size=(b, c, length))
        rows = (rng.normal(size=(c, c)) / np.sqrt(c)) @ channel_rows(x)  # a channel mix
        view = rows.reshape(c, b, length).transpose(1, 0, 2)
        return rows, view, rng.normal(size=c), rng.uniform(0.1, 4.0, size=c), rng.normal(size=c), rng.normal(size=c)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_channel_major_matches_the_strided_expressions(self, shape):
        rows, view, mean, var, gamma, beta = self.operands(shape)
        (got, centered), want = batch_channel_stats(rows), stats_before_rows(view)
        assert got.mean.tobytes() == want[0].tobytes() and got.var.tobytes() == want[1].tobytes()
        assert centered.tobytes() == (rows - got.mean.reshape(-1, 1)).tobytes()
        before = rows.copy()
        served = rows - mean.reshape(-1, 1)
        out, saved = normalize(served, var, gamma, beta, 1e-5)
        assert saved is None and out is served and np.array_equal(rows, before)  # in place on its argument
        want = serving_before_rows(view, mean, var, gamma, beta, 1e-5)
        assert out.reshape(view.shape[1], view.shape[0], -1).transpose(1, 0, 2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_the_batch_source_normalizes_the_centred_rows(self, shape):
        """Normalizing the rows `batch_channel_stats` centred gives the bits of subtracting the mean again."""
        rows, view, _mean, _var, gamma, beta = self.operands(shape, seed=1)
        stats, centered = batch_channel_stats(rows)
        out, _ = normalize(centered, stats.var, gamma, beta, 1e-5)
        want = serving_before_rows(view, stats.mean, stats.var, gamma, beta, 1e-5)
        assert out.reshape(view.shape[1], view.shape[0], -1).transpose(1, 0, 2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_a_recorded_call_gives_the_serving_bits_in_new_rows(self, shape):
        rows, view, mean, var, gamma, beta = self.operands(shape, seed=2)
        centered = rows - mean.reshape(-1, 1)
        before = centered.copy()
        out, saved = normalize(centered, var, gamma, beta, 1e-5, record=True)
        assert out.flags.c_contiguous and len(saved) == 5 and saved[0] is centered
        assert np.array_equal(centered, before)  # a recorded call leaves its argument alone
        assert out.tobytes() == normalize(centered.copy(), var, gamma, beta, 1e-5)[0].tobytes()
        want = serving_before_rows(view, mean, var, gamma, beta, 1e-5)
        assert out.reshape(view.shape[1], view.shape[0], -1).transpose(1, 0, 2).tobytes() == want.tobytes()
