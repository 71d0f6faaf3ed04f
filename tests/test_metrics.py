import dataclasses
import math

import numpy as np
import pytest

import fastsal.metrics as M
from fastsal.errors import ContractError


def brute_force_auc(positives, negatives):
    """Slow independent ROC-area computation: one operating point per distinct
    positive value (descending, >= comparisons), explicit trapezoid sum with
    (0,0) and (1,1) endpoints."""
    pos = sorted(float(v) for v in positives)
    neg = [float(v) for v in negatives]
    points = [(0.0, 0.0)]
    for thr in sorted(set(pos), reverse=True):
        tp = sum(1 for v in pos if v >= thr) / len(pos)
        fp = sum(1 for v in neg if v >= thr) / len(neg)
        points.append((fp, tp))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


class TestAucJudd:
    def test_perfect_ranking(self):
        pred = np.zeros((4, 4))
        pred[1, 1] = 1.0
        assert M.auc_judd(pred, [(1, 1)]) == pytest.approx(1.0)

    def test_inverted_ranking_scores_low(self):
        pred = np.arange(16, dtype=np.float64).reshape(4, 4)
        # fixate the two lowest pixels: nearly all negatives outrank them
        assert M.auc_judd(pred, [(0, 0), (0, 1)]) < 0.3

    def test_constant_map_chance(self):
        assert M.auc_judd(np.full((5, 5), 0.3), [(2, 2)]) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(0, 1, (6, 7))
        fix = [(int(r), int(c)) for r, c in
               zip(rng.integers(0, 6, 5), rng.integers(0, 7, 5))]
        fix = list(dict.fromkeys(fix))
        mask = np.zeros(pred.shape, dtype=bool)
        for r, c in fix:
            mask[r, c] = True
        expect = brute_force_auc(pred[mask], pred[~mask])
        assert M.auc_judd(pred, fix) == pytest.approx(expect, abs=1e-9)

    def test_quantized_values_with_ties(self):
        rng = np.random.default_rng(99)
        pred = np.round(rng.uniform(0, 1, (5, 5)) * 4) / 4
        fix = [(0, 0), (2, 3), (4, 4)]
        mask = np.zeros(pred.shape, dtype=bool)
        for r, c in fix:
            mask[r, c] = True
        expect = brute_force_auc(pred[mask], pred[~mask])
        assert M.auc_judd(pred, fix) == pytest.approx(expect, abs=1e-9)

    def test_out_of_bounds_fixation(self):
        with pytest.raises(ContractError):
            M.auc_judd(np.zeros((3, 3)), [(3, 0)])

    def test_empty_fixations(self):
        with pytest.raises(ContractError):
            M.auc_judd(np.zeros((3, 3)), [])


class TestShuffledAuc:
    def test_center_bias_discounted(self):
        # a pure center-prior map scores high on plain AUC with a central
        # fixation, but only chance-level when the negatives share the bias
        h, w = 11, 11
        yy, xx = np.mgrid[0:h, 0:w]
        center = np.exp(-((yy - 5) ** 2 + (xx - 5) ** 2) / 8.0)
        fix = [(5, 4)]
        neg = [(5, 5), (4, 5), (6, 5), (5, 6)]
        plain = M.auc_judd(center, fix)
        shuffled = M.auc_shuffled(center, fix, neg)
        assert plain > 0.9
        assert shuffled == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(0, 1, (6, 6))
        fix = [(1, 1), (2, 4), (5, 0)]
        neg = [(0, 0), (3, 3), (4, 1), (5, 5)]
        expect = brute_force_auc([pred[r, c] for r, c in fix],
                                 [pred[r, c] for r, c in neg])
        assert M.auc_shuffled(pred, fix, neg) == pytest.approx(expect, abs=1e-9)


class TestNss:
    def test_hand_value(self):
        # map [1,2,3,4]: mean 2.5, population std sqrt(1.25); fixating the 4
        # gives (4-2.5)/sqrt(1.25) = 1.34164
        pred = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert M.nss(pred, [(0, 3)]) == pytest.approx(1.5 / math.sqrt(1.25),
                                                      abs=1e-5)
        assert M.nss(pred, [(0, 3)]) == pytest.approx(1.34164, abs=1e-5)

    def test_constant_map_zero(self):
        assert M.nss(np.full((3, 3), 0.7), [(1, 1)]) == 0.0

    def test_mean_over_fixations(self):
        pred = np.array([[1.0, 2.0, 3.0, 4.0]])
        one = M.nss(pred, [(0, 0)])
        other = M.nss(pred, [(0, 3)])
        both = M.nss(pred, [(0, 0), (0, 3)])
        assert both == pytest.approx((one + other) / 2)

    def test_scale_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0, 1, (5, 5))
        fix = [(0, 0), (2, 2)]
        a = M.nss(pred, fix)
        b = M.nss(pred * 7.0 + 3.0, fix)
        assert a == pytest.approx(b, rel=1e-9)


class TestCc:
    def test_identical_maps(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(0, 1, (4, 5))
        assert M.cc(m, m) == pytest.approx(1.0)

    def test_negated_maps(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(0, 1, (4, 5))
        assert M.cc(m, -m) == pytest.approx(-1.0)

    def test_zero_variance_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert M.cc(np.full((3, 3), 0.5), np.eye(3)) == 0.0

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(0, 1, (2, 6, 6))
        expect = np.corrcoef(a.reshape(-1), b.reshape(-1))[0, 1]
        assert M.cc(a, b) == pytest.approx(expect, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            M.cc(np.zeros((2, 2)), np.zeros((3, 3)))


class TestSim:
    def test_identical_gives_one(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0, 1, (4, 4))
        assert M.sim(m, m) == pytest.approx(1.0)

    def test_disjoint_gives_zero(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        a[0, 0] = 1.0
        b[1, 1] = 1.0
        assert M.sim(a, b) == pytest.approx(0.0)

    def test_hand_value(self):
        # normalized halves: min(0.75, 0.5) + min(0.25, 0.5) = 0.75
        a = np.array([[3.0, 1.0]])
        b = np.array([[1.0, 1.0]])
        assert M.sim(a, b) == pytest.approx(0.75)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        a, b = rng.uniform(0, 1, (2, 5, 5))
        assert M.sim(a, b) == pytest.approx(M.sim(b, a), rel=1e-12)


class TestKldiv:
    def test_identical_zero(self):
        rng = np.random.default_rng(7)
        m = rng.uniform(0.1, 1.0, (4, 4))
        assert M.kldiv(m, m) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self):
        # Q = [0.75, 0.25] against P = [0.5, 0.5]:
        # 0.75 ln 1.5 + 0.25 ln 0.5 = 0.13081
        pred = np.array([[1.0, 1.0]])
        gt = np.array([[3.0, 1.0]])
        expect = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert M.kldiv(pred, gt) == pytest.approx(expect, abs=1e-9)
        assert M.kldiv(pred, gt) == pytest.approx(0.13081, abs=1e-5)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rng.uniform(0.01, 1.0, (4, 4))
            b = rng.uniform(0.01, 1.0, (4, 4))
            assert M.kldiv(a, b) >= -1e-9


class TestInfoGain:
    def test_zero_against_self(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(0.1, 1.0, (4, 4))
        assert M.info_gain(m, [(1, 1)], m) == pytest.approx(0.0, abs=1e-6)

    def test_positive_when_better_than_baseline(self):
        pred = np.full((4, 4), 0.01)
        pred[2, 2] = 1.0
        uniform = np.ones((4, 4))
        assert M.info_gain(pred, [(2, 2)], uniform) > 0

    def test_log2_units(self):
        # prediction puts 2x the uniform mass on the fixated pixel
        pred = np.ones((2, 2))
        pred[0, 0] = 2.0
        uniform = np.ones((2, 2))
        expect = math.log2((2.0 / 5.0) / (1.0 / 4.0))
        assert M.info_gain(pred, [(0, 0)], uniform) == pytest.approx(expect,
                                                                     abs=1e-6)


class TestEvaluate:
    def test_full_report(self):
        rng = np.random.default_rng(10)
        pred = rng.uniform(0, 1, (6, 6))
        gt = rng.uniform(0, 1, (6, 6))
        rep = M.evaluate(pred, gt_density=gt, fixations=[(1, 1), (3, 4)],
                         negative_fixations=[(0, 0), (5, 5)],
                         baseline=np.ones((6, 6)))
        d = dataclasses.asdict(rep)
        assert set(d) == {"auc", "sauc", "nss", "cc", "kldiv", "sim", "ig"}
        assert all(np.isfinite(v) for v in d.values())

    def test_partial_inputs(self):
        pred = np.random.default_rng(11).uniform(0, 1, (4, 4))
        rep = M.evaluate(pred, fixations=[(0, 0)])
        assert rep.auc is not None and rep.nss is not None
        assert rep.cc is None and rep.sauc is None and rep.ig is None

    def test_accepts_nchw_prediction(self):
        pred = np.random.default_rng(12).uniform(0, 1, (1, 1, 4, 4))
        gt = np.random.default_rng(13).uniform(0, 1, (4, 4))
        rep = M.evaluate(pred, gt_density=gt)
        assert rep.cc is not None
