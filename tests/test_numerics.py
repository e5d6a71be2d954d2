"""The reference differentiator (reference_tape.py) against straight-line and
finite-difference oracles, and the package's Tensor and softmax."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tape as nm
from reference_tape import Tape, TapeError, backward
from stta.numerics import ShapeError, Tensor, softmax

from oracles import entropy_mp, matmul_triple_loop, mean_var_two_pass, softmax_mp


def rand(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0.0, scale, size=shape))


class TestTensor:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Tensor([1.0, float("nan")])
        with pytest.raises(ValueError):
            Tensor([[float("inf")]])

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_shape_matches_data(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.size == 24


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_zeros(self):
        out = nm.matmul(Tensor(np.zeros((3, 4))), rand((4, 2), seed=1))
        assert np.array_equal(out.data, np.zeros((3, 2)))

    def test_matches_triple_loop_oracle(self):
        a, b = rand((3, 3), seed=2), rand((3, 3), seed=3)
        want = np.array(matmul_triple_loop(a.tolist(), b.tolist()))
        got = nm.matmul(a, b).data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nm.matmul(rand((2, 3)), rand((2, 3)))
        with pytest.raises(ShapeError):
            nm.matmul(rand((2, 3)), rand((3,)))


def reduce_mean_var(a, axes):
    return nm.reduce_mean(a, axes), nm.reduce_var(a, axes)


class TestReduceMeanVar:
    def test_single_element(self):
        mean, var = reduce_mean_var(Tensor([4.5]), (0,))
        assert mean.item() == 4.5
        assert var.item() == 0.0

    def test_two_elements_population(self):
        mean, var = reduce_mean_var(Tensor([1.0, 3.0]), (0,))
        assert mean.item() == 2.0
        assert var.item() == 1.0  # population convention: divide by count

    def test_matches_two_pass_oracle(self):
        x = rand((4, 5, 6), seed=4)
        mean, var = reduce_mean_var(x, (0, 2))
        for c in range(5):
            flat = [x.data[b, c, l] for b in range(4) for l in range(6)]
            m, v = mean_var_two_pass(flat)
            assert abs(mean.data[c] - m) < 1e-12
            assert abs(var.data[c] - v) < 1e-12

    def test_permutation_invariant_along_reduced_axes(self):
        x = rand((6, 3), seed=5)
        mean, var = reduce_mean_var(x, (0,))
        perm = np.random.default_rng(6).permutation(6)
        mean_p, var_p = reduce_mean_var(Tensor(x.data[perm]), (0,))
        assert np.allclose(mean.data, mean_p.data, atol=1e-12)
        assert np.allclose(var.data, var_p.data, atol=1e-12)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            nm.reduce_mean(rand((2, 2)), ())

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            nm.reduce_var(rand((2, 2)), (2,))


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_large_logits_stable(self):
        out = softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1.0 - 1e-12
        assert out.data[1] < 1e-12

    def test_matches_extended_precision_oracle(self):
        got = softmax(Tensor([2.0, 0.0, 0.0])).data
        want = softmax_mp([2.0, 0.0, 0.0])
        assert np.max(np.abs(got - np.array(want))) < 1e-12
        # sanity on the documented 5-digit values (truncated, not rounded)
        assert got == pytest.approx([0.78699, 0.10650, 0.10650], abs=1e-5)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one_and_argmax_preserved(self, logits):
        out = softmax(Tensor(logits)).data
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) < 1e-9
        top = sorted(logits)
        if len(logits) == 1 or top[-1] - top[-2] > 1e-6:  # argmax well-defined at f64
            assert int(out.argmax()) == int(np.argmax(logits))

    def test_batched_rows(self):
        x = rand((5, 4), seed=7, scale=3.0)
        out = softmax(x).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        for i in range(5):
            want = softmax_mp(list(x.data[i]))
            assert np.max(np.abs(out[i] - np.array(want))) < 1e-12


class TestBackward:
    def test_constant_loss_zero_grads(self):
        tape = Tape()
        gamma = tape.variable(Tensor([1.0, 2.0]), trainable=True)
        loss = tape.variable(Tensor(3.0))
        grads = backward(tape, loss)
        assert np.array_equal(grads[gamma].data, np.zeros(2))

    def test_linear_loss_grad_is_coefficient(self):
        # loss = sum(gamma * x)  =>  d loss / d gamma = x
        tape = Tape()
        x = Tensor([2.0, -3.0, 0.5])
        gamma = tape.variable(Tensor([1.0, 1.0, 1.0]), trainable=True)
        loss = nm.reduce_sum(nm.mul(gamma, x), (0,))
        grads = backward(tape, loss)
        assert np.array_equal(grads[gamma].data, x.data)

    def test_fanout_accumulates(self):
        # loss = sum(x * x) => grad = 2x, exercised through two uses of x
        tape = Tape()
        x = tape.variable(Tensor([1.5, -2.0]), trainable=True)
        loss = nm.reduce_sum(nm.mul(x, x), (0,))
        grads = backward(tape, loss)
        assert np.allclose(grads[x].data, 2.0 * x.value, atol=1e-15)

    def test_loss_must_be_scalar_on_tape(self):
        tape = Tape()
        x = tape.variable(Tensor([1.0, 2.0]), trainable=True)
        with pytest.raises(TapeError):
            backward(tape, nm.mul(x, x))
        other = Tape()
        loss = other.variable(Tensor(1.0))
        with pytest.raises(TapeError):
            backward(tape, loss)

    def test_non_trainable_slots_receive_none(self):
        tape = Tape()
        a = tape.variable(Tensor([1.0]), trainable=True)
        b = tape.variable(Tensor([2.0]))  # not trainable
        loss = nm.reduce_sum(nm.mul(a, b), (0,))
        grads = backward(tape, loss)
        assert a in grads and b not in grads

    def test_small_net_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        w0 = rng.normal(size=(3, 3))
        x0 = rng.normal(size=(2, 3))

        def loss_of(wflat):
            w = np.array(wflat).reshape(3, 3)
            h = np.maximum(x0 @ w, 0.0)
            p = np.exp(h - h.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            # entropy via independent numpy recomputation
            logp = np.log(p)
            return float(np.mean(-(p * logp).sum(axis=1)))

        tape = Tape()
        w = tape.variable(Tensor(w0), trainable=True)
        h = nm.relu(nm.matmul(Tensor(x0), w))
        p = nm.softmax(h)
        lp = nm.log_softmax(h)
        loss = nm.reduce_mean(nm.neg(nm.reduce_sum(nm.mul(p, lp), (1,))), (0,))
        grads = backward(tape, loss)[w].data.ravel()

        from oracles import finite_difference_grad

        fd = np.array(finite_difference_grad(loss_of, list(w0.ravel()), h=1e-4))
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grads - fd) / denom) < 1e-4


class TestOpGradients:
    """Central finite differences for every differentiable primitive."""

    CASES = [
        ("add", lambda t, v: nm.add(v, Tensor(np.full(v.shape, 0.5))), (2, 3)),
        ("sub", lambda t, v: nm.sub(Tensor(np.full(v.shape, 0.5)), v), (2, 3)),
        ("mul", lambda t, v: nm.mul(v, v), (2, 3)),
        ("neg", lambda t, v: nm.neg(v), (4,)),
        ("relu", lambda t, v: nm.relu(v), (3, 3)),
        ("rsqrt", lambda t, v: nm.rsqrt(nm.add_scalar(nm.mul(v, v), 1.0)), (5,)),
        ("transpose", lambda t, v: nm.transpose(v, (1, 0)), (2, 4)),
        ("reshape", lambda t, v: nm.reshape(v, (6,)), (2, 3)),
        ("expand", lambda t, v: nm.expand(v, (2, 3, 4), (1,)), (3,)),
        ("reduce_sum", lambda t, v: v, (2, 3)),
        ("reduce_mean", lambda t, v: nm.expand(nm.reduce_mean(v, (0,)), (2, 3), (1,)), (2, 3)),
        ("reduce_var", lambda t, v: nm.expand(nm.reduce_var(v, (0,)), (2, 3), (1,)), (2, 3)),
        ("softmax", lambda t, v: nm.softmax(v), (3, 4)),
        ("log_softmax", lambda t, v: nm.log_softmax(v), (3, 4)),
        ("matmul", lambda t, v: nm.matmul(nm.reshape(v, (2, 3)), Tensor(np.arange(12.0).reshape(3, 4) / 7.0)), (6,)),
    ]

    @pytest.mark.parametrize("name,build,shape", CASES, ids=[c[0] for c in CASES])
    def test_matches_finite_differences(self, name, build, shape):
        rng = np.random.default_rng(hash(name) % 2**32)
        x0 = rng.normal(0.0, 1.0, size=shape)
        if name == "relu":  # keep away from the kink
            x0 = np.where(np.abs(x0) < 0.1, 0.5, x0)
        weights = rng.normal(size=int(np.prod(_out_shape(build, x0))))

        def scalar_loss(flat):
            tape = Tape()
            v = tape.variable(Tensor(np.array(flat).reshape(shape)), trainable=True)
            out = build(tape, v)
            flat_out = nm.reshape(out, (int(np.prod(out.shape)),))
            return nm.reduce_sum(nm.mul(flat_out, Tensor(weights)), (0,)), tape, v

        loss, tape, v = scalar_loss(x0.ravel())
        analytic = backward(tape, loss)[v].data.ravel()

        def value_only(flat):
            return float(scalar_loss(flat)[0].value)

        from oracles import finite_difference_grad

        fd = np.array(finite_difference_grad(value_only, list(x0.ravel()), h=1e-4))
        denom = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(analytic - fd) / denom) < 1e-4, name


def _out_shape(build, x0):
    tape = Tape()
    v = tape.variable(Tensor(x0), trainable=True)
    return build(tape, v).shape


class TestExpandAndStructure:
    def test_expand_forward(self):
        v = Tensor([1.0, 2.0])
        out = nm.expand(v, (3, 2), (1,))
        assert np.array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))

    def test_expand_shape_errors(self):
        with pytest.raises(ShapeError):
            nm.expand(Tensor([1.0, 2.0]), (3, 3), (1,))

    def test_no_implicit_broadcasting(self):
        with pytest.raises(ShapeError):
            nm.add(rand((2, 3)), rand((3,)))
        with pytest.raises(ShapeError):
            nm.mul(rand((2, 3)), rand((2, 1)))

    def test_take_per_row(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nm.take_per_row(x, [1, 0])
        assert np.array_equal(out.data, [2.0, 3.0])
        with pytest.raises(ValueError):
            nm.take_per_row(x, [0, 2])


class TestEntropyOracleAgreement:
    def test_entropy_matches_mpmath(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(0.0, 2.0, size=(6, 5))
        from stta.model import entropy_loss

        got = entropy_loss(Tensor(logits))[0]
        want = float(np.mean([entropy_mp(list(row)) for row in logits]))
        assert abs(got - want) < 1e-10
