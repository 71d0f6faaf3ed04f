import math

import numpy as np
import pytest

import fastsal.distill as D
import fastsal.kernels as K
from fastsal.errors import ContractError, NumericDomainError, ShapeError
from fastsal.tensor import Tape, Tensor

LN2 = math.log(2.0)


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def feat(rng, shape=(1, 2, 3, 3)):
    return Tensor(rng.normal(size=shape))


class TestTeacherBundle:
    def test_valid_bundle(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0.1, 1.0, (1, 1, 4, 4))
        b = D.TeacherBundle(hint_features=[feat(rng) for _ in range(4)],
                            pseudo_map=Tensor(rng.uniform(0, 1, (1, 1, 4, 4))),
                            pseudo_dist=Tensor(d / d.sum()))
        assert b.validate() is b

    def test_wrong_hint_count(self):
        rng = np.random.default_rng(1)
        b = D.TeacherBundle(hint_features=[feat(rng)] * 3)
        with pytest.raises(ContractError):
            b.validate()

    def test_pseudo_map_out_of_range(self):
        b = D.TeacherBundle(pseudo_map=t([[[[1.5]]]]))
        with pytest.raises(NumericDomainError):
            b.validate()

    def test_pseudo_dist_not_normalized(self):
        b = D.TeacherBundle(pseudo_dist=t([[[[0.5, 0.6]]]]))
        with pytest.raises(ContractError):
            b.validate()


class TestHintLoss:
    def test_zero_when_matched(self):
        rng = np.random.default_rng(2)
        feats = [feat(rng) for _ in range(4)]
        loss = D.hint_loss(feats, [f.detach() for f in feats])
        assert loss.item() == pytest.approx(0.0)

    def test_sums_per_layer_mse(self):
        student = [t(np.zeros((1, 1, 2, 2))) for _ in range(4)]
        teacher = [t(np.full((1, 1, 2, 2), float(i))) for i in range(4)]
        loss = D.hint_loss(student, teacher)
        assert loss.item() == pytest.approx(0.0 + 1.0 + 4.0 + 9.0)

    def test_scale_invariant_to_layer_size(self):
        # mean per layer: doubling a layer's spatial size must not change
        # its contribution when the error is uniform
        small = D.hint_loss([t(np.zeros((1, 1, 2, 2)))],
                            [t(np.ones((1, 1, 2, 2)))])
        big = D.hint_loss([t(np.zeros((1, 1, 8, 8)))],
                          [t(np.ones((1, 1, 8, 8)))])
        assert small.item() == pytest.approx(big.item())

    def test_layer_count_mismatch(self):
        with pytest.raises(ShapeError):
            D.hint_loss([t(np.zeros((1, 1, 2, 2)))] * 3,
                        [t(np.zeros((1, 1, 2, 2)))] * 4)

    def test_layer_shape_mismatch_names_layer(self):
        s = [t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 2, 2)))]
        te = [t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 2, 2, 2)))]
        with pytest.raises(ShapeError, match="layer 2"):
            D.hint_loss(s, te)


class TestSalganLoss:
    def test_both_targets_half_logits_zero(self):
        logits = t(np.zeros((1, 1, 2, 2)))
        half = t(np.full((1, 1, 2, 2), 0.5))
        loss = D.salgan_loss(logits, gt=half, pseudo=half)
        assert loss.item() == pytest.approx(2 * LN2, rel=1e-6)

    def test_single_target(self):
        logits = t(np.zeros((1, 1, 2, 2)))
        half = t(np.full((1, 1, 2, 2), 0.5))
        assert D.salgan_loss(logits, gt=half).item() == pytest.approx(LN2, rel=1e-6)
        assert D.salgan_loss(logits, pseudo=half).item() == pytest.approx(LN2, rel=1e-6)

    def test_sum_of_terms(self):
        rng = np.random.default_rng(3)
        logits = t(rng.normal(size=(2, 1, 3, 3)))
        gt = t(rng.uniform(0, 1, (2, 1, 3, 3)))
        pseudo = t(rng.uniform(0, 1, (2, 1, 3, 3)))
        both = D.salgan_loss(logits, gt=gt, pseudo=pseudo).item()
        split = (D.salgan_loss(logits, gt=gt).item()
                 + D.salgan_loss(logits, pseudo=pseudo).item())
        assert both == pytest.approx(split, rel=1e-9)

    def test_no_target_rejected(self):
        with pytest.raises(ContractError):
            D.salgan_loss(t(np.zeros((1, 1, 2, 2))))

    def test_target_range_checked(self):
        logits = t(np.zeros((1, 1, 1, 1)))
        with pytest.raises(NumericDomainError):
            D.salgan_loss(logits, gt=t([[[[2.0]]]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            D.salgan_loss(t(np.zeros((1, 1, 2, 2))), gt=t(np.zeros((1, 1, 3, 3))))

    def test_finite_at_extreme_logits(self):
        logits = t(np.array([[-80.0, 80.0]]).reshape(1, 1, 1, 2))
        gt = t(np.array([[1.0, 0.0]]).reshape(1, 1, 1, 2))
        loss = D.salgan_loss(logits, gt=gt)
        assert np.isfinite(loss.item())

    def test_minimized_at_matching_prediction(self):
        gt = t(np.array([[0.2, 0.8]]).reshape(1, 1, 1, 2))
        on_target = t(np.log(np.array([[0.2 / 0.8, 0.8 / 0.2]])).reshape(1, 1, 1, 2))
        best = D.salgan_loss(on_target, gt=gt).item()
        worse = D.salgan_loss(t(np.zeros((1, 1, 1, 2))), gt=gt).item()
        assert best < worse


class TestConversions:
    def test_to_distribution_sums_to_one(self):
        rng = np.random.default_rng(4)
        d = K.softmax_spatial(t(rng.normal(size=(3, 1, 4, 5))))
        np.testing.assert_allclose(d.data.reshape(3, -1).sum(axis=1), 1.0,
                                   atol=1e-9)

    def test_distribution_to_map_bounded(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(0.1, 1.0, (2, 1, 4, 4))
        m = D._minmax(d / d.reshape(2, -1).sum(1)[:, None, None, None])
        assert m.min() == pytest.approx(0.0)
        assert m.max() == pytest.approx(1.0)


def deepgaze_oracle(logits, dist):
    """Independent scalar recomputation of the composite distillation loss
    for a single-item batch, written directly from the definition."""
    z = logits.reshape(-1).astype(np.float64)
    ybar = dist.reshape(-1).astype(np.float64)
    e = np.exp(z - z.max())
    g = e / e.sum()
    kl = float((ybar * (np.log(np.maximum(ybar, 1e-12))
                        - np.log(g + 1e-12))).sum())
    cos = float((ybar * g).sum()
                / (np.linalg.norm(ybar) * np.linalg.norm(g)))
    span = ybar.max() - ybar.min()
    target = (ybar - ybar.min()) / span if span > 0 else np.zeros_like(ybar)
    p = np.clip(1.0 / (1.0 + np.exp(-z)), 1e-7, 1 - 1e-7)
    bce = float(-(target * np.log(p) + (1 - target) * np.log(1 - p)).mean())
    return kl + (1.0 - cos) + bce


class TestDeepgazeLoss:
    def test_two_pixel_hand_value(self):
        # teacher [0.7, 0.3], logits all zero; KL = 0.7 ln 1.4 + 0.3 ln 0.6,
        # cosine term = 1 - 1/(sqrt(0.58) * sqrt(2)), BCE = ln 2
        logits = t(np.zeros((1, 1, 1, 2)))
        dist = t(np.array([[0.7, 0.3]]).reshape(1, 1, 1, 2))
        loss = D.deepgaze_loss(logits, dist).item()
        kl = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
        cos = 1.0 - 1.0 / (math.sqrt(0.58) * math.sqrt(2.0))
        assert loss == pytest.approx(kl + cos + LN2, abs=1e-6)
        assert loss == pytest.approx(0.846955, abs=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_oracle(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(1, 1, 4, 5))
        d = rng.uniform(0.1, 1.0, (1, 1, 4, 5))
        d /= d.sum()
        loss = D.deepgaze_loss(t(logits), t(d)).item()
        assert loss == pytest.approx(deepgaze_oracle(logits, d), rel=1e-8)

    def test_batch_mean_of_items(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(2, 1, 3, 3))
        d = rng.uniform(0.1, 1.0, (2, 1, 3, 3))
        d /= d.reshape(2, -1).sum(1)[:, None, None, None]
        batched = D.deepgaze_loss(t(logits), t(d)).item()
        singles = [deepgaze_oracle(logits[i], d[i]) for i in range(2)]
        assert batched == pytest.approx(np.mean(singles), rel=1e-8)

    def test_kl_vanishes_when_distributions_match(self):
        # logits equal to log teacher: KL is 0 and cosine term is 0
        d = np.array([[0.1, 0.2, 0.3, 0.4]]).reshape(1, 1, 1, 4)
        logits = np.log(d)
        loss = D.deepgaze_loss(t(logits), t(d)).item()
        z = logits.reshape(-1)
        p = np.clip(1 / (1 + np.exp(-z)), 1e-7, 1 - 1e-7)
        target = (d.reshape(-1) - 0.1) / 0.3
        bce = -(target * np.log(p) + (1 - target) * np.log(1 - p)).mean()
        assert loss == pytest.approx(bce, abs=1e-9)

    def test_unnormalized_dist_rejected(self):
        with pytest.raises(ContractError):
            D.deepgaze_loss(t(np.zeros((1, 1, 1, 2))),
                            t(np.array([[0.9, 0.9]]).reshape(1, 1, 1, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            D.deepgaze_loss(t(np.zeros((1, 1, 2, 2))),
                            t(np.full((1, 1, 3, 3), 1.0 / 9)))

    def test_teacher_side_carries_no_gradient(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(0.1, 1.0, (1, 1, 3, 3))
        dist = Tensor(d / d.sum(), requires_grad=True)
        logits = Tensor(rng.normal(size=(1, 1, 3, 3)), requires_grad=True)
        with Tape() as tape:
            loss = D.deepgaze_loss(logits, dist)
        glog, gdist = tape.gradients(loss, [logits, dist])
        assert np.abs(glog).max() > 0
        np.testing.assert_array_equal(gdist, np.zeros_like(d))
