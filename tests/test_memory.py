import json
import math
import re

import numpy as np
import pytest

from stta.engine import EngineConfig
from stta.memory import SAMPLE_FIELDS, SampleMemory, wasserstein
from stta.normalization import ChannelStats
from stta.numerics import ShapeError

import memory_reference as reference
from memory_oracle import OracleMemory
from oracles import wasserstein_mp
from reference_tape import Tensor


def stats(mu, sigma):
    """One (mu, sigma) summary as float arrays."""
    return np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)


def offer(mem, arrival, label=0, conf=0.9, mu=(0.0,), sigma=(1.0,), wdist=0.0, entropy=0.0):
    return mem.insert(np.zeros((1, 2)), label, conf, np.asarray(mu, dtype=float),
                      np.asarray(sigma, dtype=float), wdist, arrival, entropy)


def stored(mem, field):
    """One stored field, in arrival order, as a list."""
    return getattr(mem, field)[mem.order()].tolist()


def slot_stats(mem, slot):
    return mem.mu[slot], mem.sigma[slot]


def centroid(mem):
    return mem.centroid_mu, mem.centroid_sigma


def make_memory(capacity=4, mode="cndrm", tau_conf=0.5, beta=0.9, channels=1, seed=0):
    return SampleMemory(capacity, channels, tau_conf, beta, mode,
                        np.random.default_rng(seed))


def load_memory(section, mode="cndrm", tau_conf=0.5, beta=0.9, channels=1, rng=None):
    """`make_memory`'s memory at the section's capacity, filled from a checkpoint section of one class."""
    return SampleMemory.from_state_dict(section, 1, channels=channels, tau_conf=tau_conf, beta=beta,
                                        selection_mode=mode, rng=rng if rng is not None else np.random.default_rng(0))


def with_centroid(mu, sigma, beta):
    """A memory whose centroid has already seen a batch and holds (mu, sigma)."""
    mem = make_memory(channels=len(mu), beta=beta)
    mem.centroid_mu, mem.centroid_sigma = stats(mu, sigma)
    mem.centroid_initialized = True
    return mem


class TestWasserstein:
    def test_identical_stats(self):
        a = stats([1.0, 2.0], [0.5, 0.25])
        assert wasserstein(*a, *a) == 0.0

    def test_three_four_five(self):
        assert wasserstein(*stats([3.0], [4.0]), *stats([0.0], [0.0])) == 5.0

    def test_two_channels_and_permutation_symmetry(self):
        a = stats([3.0, 0.0], [4.0, 0.0])
        b = stats([0.0, 0.0], [0.0, 0.0])
        assert wasserstein(*a, *b) == 5.0
        a_perm = stats([0.0, 3.0], [0.0, 4.0])
        assert wasserstein(*a_perm, *b) == wasserstein(*a, *b)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = stats(rng.normal(size=5), rng.uniform(0, 3, size=5))
            b = stats(rng.normal(size=5), rng.uniform(0, 3, size=5))
            want = wasserstein_mp(*a, *b)
            assert wasserstein(*a, *b) == pytest.approx(want, abs=1e-12)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = (stats(rng.normal(size=4), rng.uniform(0, 2, size=4)) for _ in range(3))
            dab, dba = wasserstein(*a, *b), wasserstein(*b, *a)
            assert dab == dba                     # symmetry
            assert wasserstein(*a, *a) == 0.0     # identity
            assert dab > 0.0                      # distinct random points
            assert wasserstein(*a, *c) <= dab + wasserstein(*b, *c) + 1e-9  # triangle


class TestCentroid:
    def test_first_batch_initializes(self):
        mem = make_memory(channels=2, beta=0.9)
        shift = mem.update_centroid(ChannelStats(np.array([1.0, 2.0]), np.array([4.0, 9.0])))
        assert mem.centroid_initialized
        assert np.array_equal(mem.centroid_mu, [1.0, 2.0])
        assert np.array_equal(mem.centroid_sigma, [2.0, 3.0])  # sqrt of variance
        assert shift == math.inf

    def test_blend_weights_current_batch(self):
        mem = with_centroid([0.0], [1.0], beta=0.9)
        shift = mem.update_centroid(ChannelStats(np.array([1.0]), np.array([1.0])))
        assert mem.centroid_mu[0] == pytest.approx(0.9, abs=1e-15)
        assert shift == pytest.approx(0.9, abs=1e-12)

    def test_beta_one_adopts_batch(self):
        mem = with_centroid([5.0], [2.0], beta=1.0)
        mem.update_centroid(ChannelStats(np.array([1.0]), np.array([9.0])))
        assert mem.centroid_mu[0] == 1.0
        assert mem.centroid_sigma[0] == 3.0

    def test_sigma_blends_in_variance_space(self):
        mem = with_centroid([0.0], [1.0], beta=0.5)
        mem.update_centroid(ChannelStats(np.array([0.0]), np.array([9.0])))
        assert mem.centroid_sigma[0] == pytest.approx(math.sqrt(0.5 * 1.0 + 0.5 * 9.0), abs=1e-15)

    def test_bad_beta(self):
        # The centroid's momentum is checked where it enters, in the engine config.
        with pytest.raises(ValueError, match="beta_centroid"):
            EngineConfig(beta_centroid=0.0)


class TestMaybeRescore:
    def test_zero_shift_rescores_nothing(self):
        mem = make_memory()
        mem.update_centroid(ChannelStats(np.array([0.0]), np.array([1.0])))
        for i in range(3):
            offer(mem, i, wdist=1.0)
        assert mem.maybe_rescore(0.0) == 0
        assert stored(mem, "wdist") == [1.0] * 3

    def test_shift_over_threshold_rescores_all(self):
        mem = make_memory(capacity=10)
        mem.update_centroid(ChannelStats(np.array([0.0]), np.array([1.0])))
        for i in range(7):
            offer(mem, i, mu=[float(i)], sigma=[1.0], wdist=-1.0)
        assert mem.maybe_rescore(0.2) == 7
        for slot in mem.order():
            assert mem.wdist[slot] == wasserstein(*slot_stats(mem, slot), *centroid(mem))

    @pytest.mark.parametrize("mean,rescored", [(0.1, 0), (np.nextafter(0.1, 1), 3)], ids=["at", "above"])
    def test_threshold_is_strict(self, mean, rescored):
        # beta 1: the centroid moves from (mu 0, sigma 1) to (mean, 1), a shift of exactly `mean`.
        mem = make_memory(beta=1.0)
        mem.update_centroid(ChannelStats(np.array([0.0]), np.array([1.0])))
        for i in range(3):
            offer(mem, i, wdist=1.0)
        shift = mem.update_centroid(ChannelStats(np.array([mean]), np.array([1.0])))
        assert shift == mean and mem.tau_delta == 0.1
        assert mem.maybe_rescore(shift) == rescored

    @pytest.mark.parametrize("mode", ["naive", "random", "low_entropy", "crm", "cndrm"])
    def test_threshold_is_a_constant(self, mode):
        assert make_memory(mode=mode).tau_delta == SampleMemory.tau_delta == 0.1
        with pytest.raises(TypeError, match="tau_delta"):
            SampleMemory(4, 1, tau_delta=0.1)

    def test_rescored_values_match_always_rescore_oracle(self):
        rng = np.random.default_rng(2)
        mem = make_memory(capacity=8, tau_conf=0.0, channels=3)
        arrival = 0
        fired_checks = 0
        for _ in range(120):
            for _ in range(4):
                mu, sigma = rng.normal(size=3), rng.uniform(0, 2, size=3)
                mem.insert(np.zeros((1, 1)), int(rng.integers(0, 3)),
                           float(rng.uniform(0.1, 1.0)), mu, sigma,
                           float(mem.score(mu, sigma)), arrival, 0.0)
                arrival += 1
            shift = mem.update_centroid(ChannelStats(rng.normal(size=3), rng.uniform(0.1, 2, size=3)))
            if mem.maybe_rescore(shift) > 0:
                fired_checks += 1
                for slot in mem.order():  # always-rescore oracle: direct recomputation
                    assert mem.wdist[slot] == wasserstein(*slot_stats(mem, slot), *centroid(mem))
        assert fired_checks > 10


class TestInsert:
    def test_rejects_low_confidence(self):
        mem = make_memory(tau_conf=0.5)
        out = offer(mem, 0, conf=0.5)  # threshold is strict
        assert out.kind == "rejected_low_conf"
        assert len(mem) == 0

    def test_inserts_below_capacity(self):
        mem = make_memory(capacity=2)
        out = offer(mem, 0, conf=0.9)
        assert out.kind == "inserted" and out.evicted is None
        assert len(mem) == 1

    def test_candidate_outside_largest_class_evicts_from_largest(self):
        mem = make_memory(capacity=3, tau_conf=0.0)
        offer(mem, 0, label=0, wdist=1.0)
        offer(mem, 1, label=0, wdist=5.0)
        offer(mem, 2, label=1, wdist=9.0)
        out = offer(mem, 3, label=1, wdist=0.5)
        # post-insert counts tie 2-2; class 1 holds the farthest sample (9.0)
        assert out.kind == "inserted_with_eviction"
        assert out.evicted == 2
        assert stored(mem, "arrivals") == [0, 1, 3]

    def test_candidate_in_largest_class_evicts_own_class_farthest(self):
        mem = make_memory(capacity=3, tau_conf=0.0)
        offer(mem, 0, label=0, wdist=1.0)
        offer(mem, 1, label=0, wdist=5.0)
        offer(mem, 2, label=1, wdist=9.0)
        out = offer(mem, 3, label=0, wdist=0.5)
        # class 0 becomes strictly largest; its farthest member (5.0) goes
        assert out.evicted == 1
        assert stored(mem, "arrivals") == [0, 2, 3]

    def test_candidate_itself_can_be_evicted(self):
        mem = make_memory(capacity=2, tau_conf=0.0)
        offer(mem, 0, label=0, wdist=1.0)
        offer(mem, 1, label=0, wdist=2.0)
        out = offer(mem, 2, label=0, wdist=99.0)
        assert out.evicted == 2
        assert stored(mem, "arrivals") == [0, 1]

    def test_wdist_tie_evicts_earliest_arrival(self):
        mem = make_memory(capacity=2, tau_conf=0.0)
        offer(mem, 0, label=0, wdist=3.0)
        offer(mem, 1, label=0, wdist=3.0)
        out = offer(mem, 2, label=0, wdist=1.0)
        assert out.evicted == 0

    def test_largest_class_tie_prefers_farthest_member(self):
        mem = make_memory(capacity=4, tau_conf=0.0)
        offer(mem, 0, label=0, wdist=1.0)
        offer(mem, 1, label=0, wdist=2.0)
        offer(mem, 2, label=1, wdist=7.0)
        offer(mem, 3, label=1, wdist=1.5)
        # counts tie 2-2-1 after adding label 2; class 1 holds the farthest
        out = offer(mem, 4, label=2, wdist=0.1)
        assert out.evicted == 2  # a class-1 sample
        assert mem.class_counts == {0: 2, 1: 1, 2: 1}

    def test_largest_class_full_tie_takes_lowest_class_id(self):
        mem = make_memory(capacity=4, tau_conf=0.0)
        offer(mem, 0, label=1, wdist=3.0)
        offer(mem, 1, label=1, wdist=1.0)
        offer(mem, 2, label=0, wdist=3.0)
        offer(mem, 3, label=0, wdist=1.0)
        # counts and farthest distances tie exactly: lowest class id loses
        out = offer(mem, 4, label=2, wdist=0.1)
        assert out.evicted == 2  # a class-0 sample
        assert mem.class_counts == {1: 2, 0: 1, 2: 1}


class TestInvariantsRandomRun:
    def run_stream(self, mode, seed, steps=400, capacity=6, classes=3):
        rng = np.random.default_rng(seed)
        mem = make_memory(capacity=capacity, mode=mode, tau_conf=0.5, channels=2, seed=seed)
        arrival = 0
        for step in range(steps):
            mu, sigma = rng.normal(size=2), rng.uniform(0, 2, size=2)
            label = int(rng.integers(0, classes))
            conf = float(rng.uniform(0.0, 1.0))
            counts_before = {}
            for stored_label in stored(mem, "labels"):
                counts_before[stored_label] = counts_before.get(stored_label, 0) + 1
            label_of = dict(zip(stored(mem, "arrivals"), stored(mem, "labels")))
            label_of[arrival] = label
            out = mem.insert(np.zeros((1, 1)), label, conf, mu, sigma,
                             float(mem.score(mu, sigma)), arrival,
                             entropy=float(rng.uniform(0, 1)))
            arrival += 1
            assert len(mem) <= capacity
            if mode in ("crm", "cndrm"):
                assert all(c > 0.5 for c in stored(mem, "confidences"))
            counts_after = {}
            for stored_label in stored(mem, "labels"):
                counts_after[stored_label] = counts_after.get(stored_label, 0) + 1
            assert mem.class_counts == counts_after
            if out.kind == "inserted_with_eviction":
                if counts_before:
                    max_before = max(counts_before.values())
                    assert max(counts_after.values()) <= max_before + (0 if mode in ("crm", "cndrm") else 1)
                if mode == "cndrm":
                    largest = max(counts_before.values()) if counts_before else 0
                    largest_classes = {c for c, n in counts_before.items() if n == largest}
                    assert (label_of[out.evicted] in largest_classes
                            or label_of[out.evicted] == label)
            if step % 7 == 0:
                shift = mem.update_centroid(ChannelStats(rng.normal(size=2), rng.uniform(0.1, 2, size=2)))
                mem.maybe_rescore(shift)

    @pytest.mark.parametrize("mode", ["naive", "random", "low_entropy", "crm", "cndrm"])
    def test_capacity_and_locality(self, mode):
        for seed in (0, 1):
            self.run_stream(mode, seed)

    def test_cndrm_eviction_has_max_wdist_in_pool(self):
        rng = np.random.default_rng(3)
        mem = make_memory(capacity=5, tau_conf=0.0, channels=2)
        mem.update_centroid(ChannelStats(np.array([0.0, 0.0]), np.array([1.0, 1.0])))
        arrival = 0
        for _ in range(300):
            mu, sigma = rng.normal(size=2), rng.uniform(0, 2, size=2)
            label = int(rng.integers(0, 3))
            wdist = float(mem.score(mu, sigma))
            before = list(zip(stored(mem, "arrivals"), stored(mem, "labels"), stored(mem, "wdist")))
            before.append((arrival, label, wdist))
            out = mem.insert(np.zeros((1, 1)), label, 0.9, mu, sigma, wdist, arrival, 0.0)
            arrival += 1
            if out.kind == "inserted_with_eviction":
                _, evicted_label, evicted_wdist = next(s for s in before if s[0] == out.evicted)
                pool = [s for s in before if s[1] == evicted_label]
                assert evicted_wdist == max(s[2] for s in pool)


class TestOracleReplay:
    def drive(self, seed, steps=300, capacity=8, classes=3, channels=4, batch=5):
        rng = np.random.default_rng(seed)
        mem = make_memory(capacity=capacity, mode="cndrm", tau_conf=0.5, beta=0.9, channels=channels)
        oracle = OracleMemory(capacity, 0.5, 0.9)
        arrival = 0
        for step in range(steps):
            mu = rng.normal(size=channels)
            sigma = rng.uniform(0, 2, size=channels)
            label = int(rng.integers(0, classes))
            conf = float(rng.uniform(0, 1))
            mem.insert(np.zeros((1, 1)), label, conf, mu, sigma,
                       float(mem.score(mu, sigma)), arrival, 0.0)
            oracle.offer(arrival, label, conf, mu, sigma)
            arrival += 1
            if (step + 1) % batch == 0:
                mean = rng.normal(size=channels)
                var = rng.uniform(0.1, 2, size=channels)
                shift = mem.update_centroid(ChannelStats(mean, var))
                mem.maybe_rescore(shift)
                oracle.step_centroid(mean, var)
            assert mem.dump() == oracle.dump(), f"diverged at step {step} (seed {seed})"

    def test_trajectories_match(self):
        for seed in (0, 1, 2):
            self.drive(seed)


class TestMemoryBatch:
    def test_empty_signal(self):
        assert make_memory().batch() is None

    def test_single_sample_round_trip(self):
        mem = make_memory()
        x = np.arange(6.0).reshape(2, 3)
        mem.insert(x, 1, 0.9, np.array([0.0]), np.array([1.0]), 0.0, 0, 0.0)
        batch = mem.batch()
        assert batch.shape == (1, 2, 3)
        assert np.array_equal(batch[0], x)

    def test_order_stable_across_calls(self):
        mem = make_memory(capacity=5, tau_conf=0.0)
        for i in range(4):
            offer(mem, i, label=i % 2, conf=0.9)
        first = mem.batch()
        second = mem.batch()
        assert np.array_equal(first, second)
        assert stored(mem, "arrivals") == [0, 1, 2, 3]


class TestAblationModes:
    def test_naive_keeps_last_batch(self):
        mem = make_memory(capacity=4, mode="naive", tau_conf=0.99)
        # confidence is ignored in naive mode; FIFO keeps the newest 4
        for i in range(10):
            offer(mem, i, conf=0.01)
        assert stored(mem, "arrivals") == [6, 7, 8, 9]

    def test_naive_evicts_the_earliest_arrival(self):
        """Once full, each naive insert evicts the earliest arrival held: after the fill, after the slots'
        ring has wrapped around, and in a memory loaded from a full memory's checkpoint."""
        mem = make_memory(capacity=3, mode="naive")
        arrivals = [0, 2, 3, 7, 8, 9, 12, 13]  # arrival indices need only increase
        for i, arrival in enumerate(arrivals):
            assert offer(mem, arrival).evicted == (arrivals[i - 3] if i >= 3 else None)
            assert stored(mem, "arrivals") == arrivals[max(0, i - 2):i + 1]
        assert mem.arrivals.tolist() == [12, 13, 9]  # five evictions: the ring went round once and on by two
        loaded = load_memory(json.loads(json.dumps(mem.state_dict())), mode="naive")
        assert loaded.arrivals.tolist() == [9, 12, 13]  # refilled in arrival order
        for arrival, evicted in ((14, 9), (15, 12), (16, 13), (17, 14)):
            assert offer(loaded, arrival).evicted == offer(mem, arrival).evicted == evicted
            assert loaded.dump() == mem.dump()

    def test_random_reproducible(self):
        def trace(seed):
            mem = make_memory(capacity=3, mode="random", seed=seed)
            for i in range(30):
                offer(mem, i, conf=0.9, label=i % 3)
            return mem.dump()

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_low_entropy_keeps_lowest(self):
        mem = make_memory(capacity=3, mode="low_entropy")
        for i, e in enumerate([5.0, 1.0, 3.0, 2.0]):
            offer(mem, i, conf=0.1, entropy=e)
        assert sorted(stored(mem, "entropies")) == [1.0, 2.0, 3.0]
        assert stored(mem, "arrivals") == [1, 2, 3]

    def test_crm_evicts_stalest_within_largest_class(self):
        mem = make_memory(capacity=3, mode="crm", tau_conf=0.5)
        offer(mem, 0, label=0, conf=0.9, wdist=0.1)
        offer(mem, 1, label=0, conf=0.9, wdist=99.0)
        offer(mem, 2, label=1, conf=0.9, wdist=5.0)
        out = offer(mem, 3, label=1, conf=0.9, wdist=0.0)
        # counts tie 2-2; crm prefers the class with the stalest member (0)
        assert out.evicted == 0

    def test_crm_filters_confidence(self):
        mem = make_memory(mode="crm", tau_conf=0.5)
        assert offer(mem, 0, conf=0.4).kind == "rejected_low_conf"

    def test_cndrm_is_default_insert_semantics(self):
        # same calls as TestInsert.test_candidate_in_largest_class...: definitional
        mem = make_memory(capacity=3, mode="cndrm", tau_conf=0.0)
        offer(mem, 0, label=0, wdist=1.0)
        offer(mem, 1, label=0, wdist=5.0)
        offer(mem, 2, label=1, wdist=9.0)
        assert offer(mem, 3, label=0, wdist=0.5).evicted == 1


class TestDump:
    def test_line_format(self):
        mem = make_memory(capacity=2, tau_conf=0.0)
        offer(mem, 0, label=2, conf=0.75, wdist=1.5)
        lines = mem.dump().splitlines()
        assert len(lines) == 1
        arrival, label, conf, wdist = lines[0].split("\t")
        assert (int(arrival), int(label)) == (0, 2)
        assert float(conf) == 0.75
        assert float(wdist) == 1.5


class TestScore:
    def test_infinite_before_centroid(self):
        mem = make_memory(channels=3)
        got = mem.score(np.zeros((4, 3)), np.ones((4, 3)))
        assert got.shape == (4,) and np.all(np.isinf(got))

    @pytest.mark.parametrize("channels", [1, 3, 6, 16, 33, 64])
    def test_batch_equals_per_row_distance(self, channels):
        rng = np.random.default_rng(channels)
        mem = make_memory(channels=channels)
        mem.update_centroid(ChannelStats(rng.normal(size=channels), rng.uniform(0.1, 2, size=channels)))
        mu = rng.normal(size=(16, channels))
        sigma = rng.uniform(0, 2, size=(16, channels))
        got = mem.score(mu, sigma)
        want = [float(wasserstein(m, s, *centroid(mem))) for m, s in zip(mu, sigma)]
        assert got.tolist() == want
        assert float(mem.score(mu[3], sigma[3])) == want[3]

    def test_rejects_channel_mismatch(self):
        mem = make_memory(channels=2)
        mem.update_centroid(ChannelStats(np.zeros(2), np.ones(2)))
        with pytest.raises(ShapeError):
            mem.score(np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError):
            mem.score(np.zeros((4, 1)), np.ones((4, 1)))

    def test_rejects_bad_stats(self):
        mem = make_memory(channels=2)
        with pytest.raises(ShapeError):
            mem.score(np.zeros((4, 3)), np.ones((4, 3)))
        with pytest.raises(ShapeError):
            mem.score(np.zeros((4, 2)), np.ones((3, 2)))


class TestSettings:
    """The memory checks its settings before it builds any state, by `EngineConfig`'s rules and messages."""

    @pytest.mark.parametrize("setting,value,named", [
        ("capacity", 2.5, "capacity must be an integer >= 1, got 2.5"),
        ("capacity", True, "capacity must be an integer >= 1, got True"),
        ("capacity", 0, "capacity must be an integer >= 1, got 0"),
        ("channels", 0, "channels must be an integer >= 1, got 0"),
        ("channels", 1.0, "channels must be an integer >= 1, got 1.0"),
        ("tau_conf", math.nan, "tau_conf must be a number in [0, 1], got nan"),
        ("tau_conf", 1.5, "tau_conf must be a number in [0, 1], got 1.5"),
        ("tau_conf", True, "tau_conf must be a number in [0, 1], got True"),
        ("beta", 5.0, "beta must be a number in (0, 1], got 5.0"),
        ("beta", 0.0, "beta must be a number in (0, 1], got 0.0"),
        ("beta", "0.5", "beta must be a number in (0, 1], got '0.5'"),
        ("selection_mode", "nope", "unknown selection mode 'nope' (have naive, random, low_entropy, crm, cndrm)"),
    ])
    def test_rejects_bad_setting(self, setting, value, named):
        settings = dict(capacity=4, channels=1, tau_conf=0.5, beta=0.9, selection_mode="cndrm")
        with pytest.raises(ValueError, match="^" + re.escape(named) + "$"):
            SampleMemory(**dict(settings, **{setting: value}))

    def test_accepts_edge_settings(self):
        mem = SampleMemory(1, 1, tau_conf=0.0, beta=1.0, selection_mode="naive")
        assert (mem.capacity, mem.tau_conf, mem.beta) == (1, 0.0, 1.0)
        SampleMemory(np.int64(3), np.int64(2), tau_conf=1.0, beta=1e-9)


class TestInsertChecks:
    def test_arrivals_must_increase(self):
        mem = make_memory(tau_conf=0.5)
        offer(mem, 3, conf=0.1)  # rejected candidates count too
        with pytest.raises(ValueError, match="arrival"):
            offer(mem, 3)
        assert len(mem) == 0

    def test_bad_shapes_change_nothing(self):
        mem = make_memory(capacity=2, tau_conf=0.0, channels=1)
        offer(mem, 0, label=1)
        before = (mem.dump(), dict(mem.class_counts), mem.batch())
        with pytest.raises(ShapeError):
            mem.insert(np.zeros((1, 3)), 0, 0.9, np.zeros(1), np.ones(1), 0.0, 1, 0.0)
        with pytest.raises(ShapeError):
            mem.insert(np.zeros((1, 2)), 0, 0.9, np.zeros(2), np.ones(2), 0.0, 1, 0.0)
        assert (mem.dump(), mem.class_counts) == before[:2]
        assert np.array_equal(mem.batch(), before[2])
        assert offer(mem, 1).kind == "inserted"


def replay_against_reference(mode, capacity, seed, steps=600, classes=5, channels=3):
    """Drive the array memory and the list-based reference with one stream.

    The centroid first stays empty for a long phase (every distance is
    infinite and ties everywhere), entropies come from three values and
    some candidates repeat an earlier sample's statistics (ties in entropy
    and distance), and five labels outnumber the small capacities.
    """
    rng = np.random.default_rng(seed)
    args = (capacity, channels, 0.5, 0.9, mode)
    mem = SampleMemory(*args, np.random.default_rng(seed))
    ref = reference.SampleMemory(*args, np.random.default_rng(seed))
    seen = []
    for step in range(steps):
        if seen and rng.uniform() < 0.2:
            mu, sigma = seen[int(rng.integers(len(seen)))]
        else:
            mu, sigma = rng.normal(size=channels), rng.uniform(0, 2, size=channels)
            seen.append((mu, sigma))
        x = rng.normal(size=(2, 4))
        label = int(rng.integers(0, classes))
        conf = float(rng.uniform(0, 1))
        entropy = float(rng.choice([0.1, 0.5, 0.9]))
        want = ref.insert(reference.MemorySample(
            Tensor(x), label, conf, reference.SampleStats(mu, sigma),
            ref.score(reference.SampleStats(mu, sigma)), step, entropy))
        got = mem.insert(x, label, conf, mu, sigma, float(mem.score(mu, sigma)), step, entropy)
        where = f"{mode} capacity {capacity}, step {step}"
        assert got.kind == want.kind, where
        assert got.evicted == (want.evicted.arrival_index if want.evicted else None), where
        if step >= 200 and step % 4 == 3:
            mean = 1.0 + 0.3 * rng.normal(size=channels)
            var = rng.uniform(0.5, 1.5, size=channels)
            shift = mem.update_centroid(ChannelStats(mean, var))
            assert shift == ref.update_centroid(ChannelStats(mean, var)), where
            assert mem.maybe_rescore(shift) == ref.maybe_rescore(shift), where
        assert mem.dump() == ref.dump(), where
        want_batch, got_batch = ref.batch(), mem.batch()
        assert (got_batch is None) == (want_batch is None), where
        if want_batch is not None:
            assert np.array_equal(got_batch, want_batch.data), where
    return mem


class TestReferenceReplay:
    @pytest.mark.parametrize("capacity", [1, 3, 16, 64])
    @pytest.mark.parametrize("mode", ["naive", "random", "low_entropy", "crm", "cndrm"])
    def test_matches_list_reference(self, mode, capacity):
        mem = replay_against_reference(mode, capacity, seed=capacity)
        assert len(mem) == capacity


def replay_batches_against_reference(mode, capacity, batch_size, seed, candidates=192, classes=5, channels=3):
    """Drive `offer` and the list-based reference batch by batch.

    The reference takes the upkeep order written out: each candidate is
    scored against the centroid as it was before the batch and inserted,
    then the batch's statistics move the centroid and the stored distances
    are rescored. Some candidates repeat an earlier sample's statistics
    (ties in distance), entropies come from three values, and the centroid
    steps are small enough that some batches skip the rescore. Returns the
    set of rescore decisions taken (shift over `tau_delta` or not).
    """
    rng = np.random.default_rng(seed)
    args = (capacity, channels, 0.5, 0.9, mode)
    mem = SampleMemory(*args, np.random.default_rng(seed))
    ref = reference.SampleMemory(*args, np.random.default_rng(seed))
    seen, fired = [], set()
    for b in range(-(-candidates // batch_size)):
        rows = []
        for _ in range(batch_size):
            if seen and rng.uniform() < 0.2:
                rows.append(seen[int(rng.integers(len(seen)))])
            else:
                rows.append((rng.normal(size=channels), rng.uniform(0, 2, size=channels)))
                seen.append(rows[-1])
        mu, sigma = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
        x = rng.normal(size=(batch_size, 2, 4))
        labels = rng.integers(0, classes, size=batch_size).tolist()
        confidences = rng.uniform(0, 1, size=batch_size).tolist()
        entropies = rng.choice([0.1, 0.5, 0.9], size=batch_size).tolist()
        batch_stats = ChannelStats(1.0 + 0.03 * rng.normal(size=channels), rng.uniform(0.97, 1.03, size=channels))
        arrival = b * batch_size
        want = []
        for i in range(batch_size):
            stats_i = reference.SampleStats(mu[i], sigma[i])
            outcome = ref.insert(reference.MemorySample(Tensor(x[i]), labels[i], confidences[i], stats_i,
                                                        ref.score(stats_i), arrival + i, entropies[i]))
            if outcome.kind != "rejected_low_conf":
                want.append(i)
        shift = ref.update_centroid(batch_stats)
        fired.add(shift > ref.tau_delta)
        want_rescored = ref.maybe_rescore(shift)
        where = f"{mode} capacity {capacity} batch size {batch_size}, batch {b}"
        assert mem.offer(x, labels, confidences, mu, sigma, entropies, batch_stats) == (want, want_rescored), where
        assert mem.next_arrival == arrival + batch_size, where
        assert mem.dump() == ref.dump(), where
        want_batch, got_batch = ref.batch(), mem.batch()
        assert (got_batch is None) == (want_batch is None), where
        if want_batch is not None:
            assert np.array_equal(got_batch, want_batch.data), where
    return fired


class TestBatchReferenceReplay:
    """`offer` against the per-candidate reference: the oracle for a batch-granular upkeep."""

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    @pytest.mark.parametrize("capacity", [1, 3, 16, 64])
    @pytest.mark.parametrize("mode", ["naive", "random", "low_entropy", "crm", "cndrm"])
    def test_offer_matches_list_reference(self, mode, capacity, batch_size):
        fired = replay_batches_against_reference(mode, capacity, batch_size, seed=capacity + batch_size)
        assert fired == {True, False}  # both sides of the rescore threshold were taken


def offer_batch(mem, rng, size, conf):
    """Offer `size` candidates of one confidence, with random inputs and statistics, to a one-channel memory."""
    return mem.offer(rng.normal(size=(size, 1, 2)), [0] * size, [conf] * size, rng.normal(size=(size, 1)),
                     rng.uniform(0.5, 1.5, size=(size, 1)), [0.5] * size,
                     ChannelStats(rng.normal(size=1), rng.uniform(0.5, 1.5, size=1)))


class TestOffer:
    def test_returns_the_candidates_that_pass_the_filter(self):
        mem = make_memory(capacity=8, tau_conf=0.5)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 1, 2))
        accepted, rescored = mem.offer(x, [0, 1, 0, 1], [0.9, 0.2, 0.5, 0.7], rng.normal(size=(4, 1)),
                                       rng.uniform(size=(4, 1)), [0.1] * 4, ChannelStats(np.zeros(1), np.ones(1)))
        assert (accepted, rescored) == ([0, 3], 2)  # 0.5 is not above tau_conf; the first centroid rescores all
        assert stored(mem, "arrivals") == [0, 3] and mem.next_arrival == 4
        assert np.array_equal(mem.batch(), x[[0, 3]])

    def test_next_arrival_counts_rejected_candidates(self):
        mem = make_memory(capacity=2, tau_conf=0.5)
        rng = np.random.default_rng(1)
        assert offer_batch(mem, rng, 3, 0.1) == ([], 0)
        assert len(mem) == 0 and mem.next_arrival == 3
        with pytest.raises(ValueError, match="arrival 2 comes before the next arrival 3"):
            offer(mem, 2)
        assert offer_batch(mem, rng, 2, 0.9)[0] == [0, 1]
        assert stored(mem, "arrivals") == [3, 4] and mem.next_arrival == 5


class TestStateDict:
    @pytest.mark.parametrize("mode", ["naive", "random", "low_entropy", "crm", "cndrm"])
    def test_round_trip(self, mode):
        rng, mem_rng = np.random.default_rng(2), np.random.default_rng(5)
        mem = SampleMemory(5, 1, 0.3, 0.9, mode, mem_rng)
        for _ in range(4):
            offer_batch(mem, rng, 3, float(rng.uniform(0.2, 1.0)))
        section = json.loads(json.dumps(mem.state_dict()))
        assert [entry["arrival_index"] for entry in section["samples"]] == stored(mem, "arrivals")
        assert all(list(entry) == list(SAMPLE_FIELDS) for entry in section["samples"])
        loaded_rng = np.random.default_rng()  # the engine checkpoint carries the generator next to the section
        loaded_rng.bit_generator.state = mem_rng.bit_generator.state
        loaded = load_memory(section, mode, tau_conf=0.3, rng=loaded_rng)
        assert loaded.capacity == 5
        assert loaded.state_dict() == mem.state_dict()
        assert (loaded.dump(), loaded.next_arrival) == (mem.dump(), mem.next_arrival)
        assert np.array_equal(loaded.batch(), mem.batch())
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        assert offer_batch(loaded, rng_a, 3, 0.9) == offer_batch(mem, rng_b, 3, 0.9)
        assert loaded.state_dict() == mem.state_dict()

    def test_a_memory_that_kept_nothing(self):
        mem = make_memory(capacity=2, tau_conf=0.5)
        offer_batch(mem, np.random.default_rng(4), 3, 0.1)
        section = mem.state_dict()
        assert section["samples"] == [] and section["centroid"]["initialized"]
        loaded = load_memory(section)
        assert loaded.state_dict() == section and loaded.next_arrival == 3 and loaded.batch() is None

    def test_the_next_offer_takes_the_loaded_next_arrival(self):
        mem = make_memory(capacity=4, tau_conf=0.5)
        rng = np.random.default_rng(6)
        offer_batch(mem, rng, 2, 0.9)
        offer_batch(mem, rng, 3, 0.1)  # rejected candidates still take arrival indices
        assert stored(mem, "arrivals") == [0, 1] and mem.next_arrival == 5
        loaded = load_memory(json.loads(json.dumps(mem.state_dict())))
        assert loaded.next_arrival == 5
        with pytest.raises(ValueError, match="arrival 4 comes before the next arrival 5"):
            offer(loaded, 4)
        assert offer_batch(loaded, rng, 1, 0.9)[0] == [0]
        assert stored(loaded, "arrivals") == [0, 1, 5] and loaded.next_arrival == 6

    @pytest.mark.parametrize("edit,got", [
        (lambda s: s.update(next_arrival=None), "None"),
        (lambda s: s.update(next_arrival=-1), "-1"),
        (lambda s: s.update(next_arrival=True), "True"),
        (lambda s: s.update(next_arrival="3"), "'3'"),
        (lambda s: s.update(next_arrival=3.0), "3.0"),
    ], ids=["null", "negative", "bool", "string", "float"])
    def test_next_arrival_must_be_a_count(self, edit, got):
        mem = make_memory(capacity=4, tau_conf=0.5)
        offer_batch(mem, np.random.default_rng(7), 3, 0.9)
        section = json.loads(json.dumps(mem.state_dict()))
        edit(section)
        with pytest.raises(ValueError) as err:
            load_memory(section)
        assert str(err.value) == f"checkpoint memory: next_arrival must be an integer >= 0, got {got}"

    def test_next_arrival_is_required(self):
        section = make_memory(capacity=2).state_dict()
        del section["next_arrival"]
        with pytest.raises(ValueError) as err:
            load_memory(section)
        assert str(err.value) == "checkpoint memory: next_arrival is missing"

    def test_next_arrival_must_follow_every_sample(self):
        mem = make_memory(capacity=4, tau_conf=0.5)
        offer_batch(mem, np.random.default_rng(8), 3, 0.9)
        section = json.loads(json.dumps(mem.state_dict()))
        last = section["samples"][-1]["arrival_index"]
        section["next_arrival"] = last  # one too few: the last sample's own index
        with pytest.raises(ValueError) as err:
            load_memory(section)
        want = (f"checkpoint memory: samples[{len(section['samples']) - 1}].arrival_index must be an integer "
                f">= 0 and < {last}, got {last}")
        assert str(err.value) == want

    @pytest.mark.parametrize("entropy", [None, math.nan, -math.inf, "0.1", True, 10 ** 400],
                             ids=["null", "nan", "inf", "string", "bool", "beyond-float"])
    @pytest.mark.parametrize("mode", ["naive", "random", "low_entropy", "crm", "cndrm"])
    def test_entropy_must_be_finite_in_every_mode(self, mode, entropy):
        mem = SampleMemory(5, 1, 0.3, 0.9, mode, np.random.default_rng(5))
        offer_batch(mem, np.random.default_rng(2), 3, 0.9)
        section = json.loads(json.dumps(mem.state_dict()))
        sample = section["samples"][1]
        sample["entropy"] = entropy
        with pytest.raises(ValueError) as err:
            load_memory(section, mode, tau_conf=0.3, rng=np.random.default_rng(5))
        want = (f"checkpoint memory: sample {sample['arrival_index']}: entropy must be a number that is finite, "
                f"got {entropy!r}")
        assert str(err.value) == want

    def test_infinite_distance(self):
        mem = make_memory(capacity=2, tau_conf=0.0)
        offer(mem, 0, wdist=math.inf)
        (entry,) = mem.state_dict()["samples"]
        assert (entry["wdist"], entry["entropy"]) == ("inf", 0.0)
