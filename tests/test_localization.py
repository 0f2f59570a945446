"""Loss kernels checked against finite differences, plus decoding helpers."""
from __future__ import annotations

import math

import numpy as np
import pytest

from egoqa.core import InvariantBreach, TemporalWindow, ValidationError
from egoqa.localization import (
    HeadOutputs,
    LabelAssignment,
    assign_labels,
    combine_losses,
    decode_windows,
    diou_loss_1d,
    focal_loss,
    token_cross_entropy,
)
from egoqa.metrics import iou_1d

from .oracles import oracle_nms

FD_STEP = 1e-6
FD_RTOL = 1e-4


def _central_diff(f, x, i, step=FD_STEP):
    hi = np.array(x, dtype=np.float64)
    lo = np.array(x, dtype=np.float64)
    hi[i] += step
    lo[i] -= step
    return (f(hi) - f(lo)) / (2 * step)


def _check_grad(analytic, numeric):
    scale = max(abs(analytic), abs(numeric), 1.0)
    assert abs(analytic - numeric) / scale <= FD_RTOL


class TestFocalLoss:
    def test_zero_loss_when_confident(self):
        value, _ = focal_loss([1.0 - 1e-7, 1e-7], [True, False])
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_gamma_zero_reduces_to_weighted_ce(self):
        p = [0.3, 0.8]
        y = [True, False]
        value, grad = focal_loss(p, y, gamma=0.0)
        expected = (-0.25 * np.log(0.3) - 0.75 * np.log(0.2)) / 2
        assert value == pytest.approx(expected, rel=1e-12)
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            p = rng.uniform(0.02, 0.98, size=n)
            y = rng.random(n) < 0.5
            gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
            _, grad = focal_loss(p, y, gamma=gamma)
            for i in range(n):
                numeric = _central_diff(lambda v: focal_loss(v, y, gamma=gamma)[0], p, i)
                _check_grad(grad[i], numeric)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="scores shape"):
            focal_loss([0.5, 0.5], [True])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            focal_loss([], [])


class TestDiouLoss:
    def test_identical_windows_zero(self):
        value, grad = diou_loss_1d(TemporalWindow(2, 7), TemporalWindow(2, 7))
        assert value == 0.0
        # one-sided subgradient at the optimum need not vanish, but must be finite
        assert np.all(np.isfinite(grad))

    def test_fixed_point_tangent_windows(self):
        value, _ = diou_loss_1d(TemporalWindow(0, 2), TemporalWindow(2, 4))
        assert value == pytest.approx(1.25, abs=1e-9)

    def test_fixed_point_nested_windows(self):
        value, _ = diou_loss_1d(TemporalWindow(0, 4), TemporalWindow(1, 3))
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_identical_points_defined_as_zero(self):
        value, grad = diou_loss_1d(TemporalWindow(3, 3), TemporalWindow(3, 3))
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_gradient_matches_finite_differences(self):
        # ties are measure-zero; resample any draw landing within 10*step of one
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            s2, l2 = rng.uniform(0, 50), rng.uniform(0.5, 20)
            s1, l1 = rng.uniform(0, 50), rng.uniform(0.5, 20)
            gt = TemporalWindow(s2, s2 + l2)
            pred = TemporalWindow(s1, s1 + l1)
            crit = [
                pred.start_s - gt.start_s,
                pred.end_s - gt.end_s,
                (pred.start_s + pred.end_s) / 2.0 - (gt.start_s + gt.end_s) / 2.0,
                min(pred.end_s, gt.end_s) - max(pred.start_s, gt.start_s),
            ]
            if any(abs(c) < 10 * FD_STEP for c in crit):
                continue
            _, grad = diou_loss_1d(pred, gt)

            def f(v):
                return diou_loss_1d(TemporalWindow(v[0], v[1]), gt)[0]

            x = [pred.start_s, pred.end_s]
            for i in range(2):
                _check_grad(grad[i], _central_diff(f, x, i))
            checked += 1


class TestTokenCrossEntropy:
    def test_value_on_known_rows(self):
        dists = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]
        value, grad = token_cross_entropy(dists, [0, 1])
        assert value == pytest.approx((-np.log(0.7) - np.log(0.8)) / 2, rel=1e-12)
        assert grad[0][0] == pytest.approx(-1 / (2 * 0.7), rel=1e-12)
        assert grad[0][1] == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n, v = int(rng.integers(1, 6)), int(rng.integers(2, 8))
            dists = rng.dirichlet(np.ones(v), size=n)
            dists = np.clip(dists, 0.01, None)
            dists /= dists.sum(axis=1, keepdims=True)
            targets = rng.integers(0, v, size=n)
            _, grad = token_cross_entropy(dists, targets)
            for r in range(n):
                t = targets[r]

                def f(flat):
                    d = dists.copy()
                    d[r, t] = flat[0]
                    return token_cross_entropy(d, targets)[0]

                numeric = _central_diff(f, [dists[r, t]], 0)
                _check_grad(grad[r, t], numeric)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValidationError, match="each row must be a probability distribution"):
            token_cross_entropy([[0.5, 0.3]], [0])

    def test_rejects_target_out_of_vocab(self):
        with pytest.raises(ValidationError, match="target id outside vocabulary"):
            token_cross_entropy([[0.5, 0.5]], [2])

    def test_tolerates_fd_sized_probe(self):
        # rows perturbed by one finite-difference step must stay admissible
        token_cross_entropy([[0.5 + 1e-6, 0.5]], [0])


class TestCombineLosses:
    def test_exact_weighting(self):
        b = combine_losses(0.125, 0.25, 0.5)
        assert b.vlg == 0.375
        assert b.total == 0.5 * 0.375 + 0.5 * 0.5

    def test_fuzzed_weighting_to_1e12(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            focal, diou, qa = rng.uniform(0, 10, size=3)
            b = combine_losses(focal, diou, qa)
            assert abs(b.vlg - (focal + diou)) <= 1e-12
            assert abs(b.total - 0.5 * (focal + diou) - 0.5 * qa) <= 1e-12

    def test_rejects_negative_loss(self):
        with pytest.raises(ValidationError):
            combine_losses(-0.1, 0.0, 0.0)

    def test_breakdown_invariant_enforced(self):
        from egoqa.localization import LossBreakdown

        with pytest.raises(InvariantBreach):
            LossBreakdown(focal=1.0, diou=1.0, vlg=3.0, qa=0.0, total=1.5)


class TestAssignLabels:
    def test_centers_inside_closed_interval(self):
        # centers at 1, 3, 5, 7, 9 for 5 steps over 10 s
        la = assign_labels(5, TemporalWindow(3.0, 7.0), 10.0)
        assert la.positives == (False, True, True, True, False)

    def test_boundary_center_counts(self):
        # center exactly on the window edge is positive (closed interval)
        la = assign_labels(5, TemporalWindow(1.0, 2.0), 10.0)
        assert la.positives[0] is True

    def test_targets_in_index_units(self):
        la = assign_labels(5, TemporalWindow(3.0, 7.0), 10.0)
        left, right = la.targets[1]
        # center index 1.5; window in index units [1.5, 3.5]
        assert left == pytest.approx(0.0)
        assert right == pytest.approx(2.0)

    def test_no_positives_case(self):
        la = assign_labels(4, TemporalWindow(0.0, 0.4), 40.0)
        assert not any(la.positives)

    def test_alignment_enforced(self):
        with pytest.raises(InvariantBreach):
            LabelAssignment((True,), (None,))

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), 0.0, -1.0])
    def test_duration_must_be_finite_and_positive(self, duration):
        # a NaN passed `duration_s <= 0` and gave all-negative labels
        with pytest.raises(ValidationError, match="finite and > 0"):
            assign_labels(3, TemporalWindow(0.0, 1.0), duration)


class TestDecodeWindows:
    def _heads(self, scores, offsets):
        return HeadOutputs(tuple(scores), tuple(offsets))

    def test_threshold_drops_weak_candidates(self):
        heads = self._heads([0.04, 0.9], [(0.0, 1.0), (0.0, 1.0)])
        out = decode_windows(heads, 10.0, score_threshold=0.05)
        assert len(out) == 1
        assert out[0][1] == 0.9

    def test_nms_suppresses_overlap(self):
        # both timesteps propose nearly the same window
        heads = self._heads([0.9, 0.8], [(0.0, 2.0), (1.0, 1.0)])
        out = decode_windows(heads, 10.0, nms_iou=0.5)
        assert len(out) == 1
        assert out[0][1] == 0.9

    def test_survivors_below_nms_iou(self):
        heads = self._heads([0.9, 0.8], [(0.0, 1.0), (0.0, 1.0)])
        out = decode_windows(heads, 20.0, nms_iou=0.5)
        from egoqa.metrics import iou_1d

        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert iou_1d(out[i][0], out[j][0]) < 0.5

    def test_top_k_limit(self):
        n = 8
        heads = self._heads(
            [0.5 + 0.01 * t for t in range(n)],
            [(0.4, 0.4)] * n,
        )
        out = decode_windows(heads, 80.0, top_k=3)
        assert len(out) == 3

    def test_clamped_to_clip(self):
        heads = self._heads([0.9], [(5.0, 50.0)])
        out = decode_windows(heads, 10.0)
        assert out[0][0].start_s == 0.0
        assert out[0][0].end_s == 10.0

    def test_empty_heads(self):
        assert decode_windows(self._heads([], []), 10.0) == ()

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), 0.0, -1.0])
    def test_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(ValidationError, match="finite and > 0"):
            decode_windows(self._heads([0.9], [(0.0, 1.0)]), duration)

    def test_overflowing_bounds_clamp_to_the_clip_without_a_warning(self):
        # (t + 1e308) * 500 overflows to inf and (t - 1e308) * 500 to -inf;
        # both clamp to the clip. The tier-1 settings make a warning an error.
        heads = self._heads([0.9, 0.8], [(1e308, 1e308), (1e308, 1e308)])
        assert decode_windows(heads, 1000.0) == ((TemporalWindow(0.0, 1000.0), 0.9),)

    def test_overflowing_union_reads_as_iou_0_without_a_warning(self):
        # Of 241 steps, t = 0 proposes the whole clip and t = 1..120 one
        # window of 120 steps, near half of it. With the clip 1.5e308 long,
        # that window's length plus the clip's passes the largest float, so
        # metrics.iou_1d reads IoU 0 and both are taken. The scan rejects
        # the first batch's copies; the copies past it meet both windows in
        # the array pass, whose sum overflows the same way.
        scores = [0.9] + [0.8] * 120 + [0.01] * 120
        offsets = [(0.0, 241.0)] + [(t, 120.0 - t) for t in range(1, 121)] + [(0.0, 0.0)] * 120
        out = decode_windows(self._heads(scores, offsets), 1.5e308, top_k=3)
        assert len(out) == 2 and iou_1d(out[0][0], out[1][0]) == 0.0
        assert [(w.start_s, w.end_s, s) for w, s in out] == oracle_nms(
            scores, offsets, 1.5e308, top_k=3)

    def test_underflowing_start_clamps_to_positive_zero(self):
        # (0 - 1e-300) * 1e-30 underflows to -0.0; Python's max(0.0, -0.0)
        # gives 0.0, and the written JSON shows the sign of a zero.
        out = decode_windows(self._heads([0.9], [(1e-300, 1.0)]), 1e-30)
        assert math.copysign(1.0, out[0][0].start_s) == 1.0


class TestHeadOutputs:
    def test_fields_are_read_only_float64_copies(self):
        heads = HeadOutputs([0.5, 1e-3], [[0, 2], [1.5, 0]])
        assert heads.scores.dtype == heads.offsets.dtype == np.float64
        assert heads.scores.tolist() == [0.5, 0.001]
        assert heads.offsets.tolist() == [[0.0, 2.0], [1.5, 0.0]]
        with pytest.raises(ValueError):
            heads.scores[0] = 0.9
        with pytest.raises(ValueError):
            heads.offsets[0, 0] = 9.0
        assert HeadOutputs([], []).offsets.shape == (0, 2)

    def test_caller_arrays_are_neither_aliased_nor_frozen(self):
        scores = np.array([0.5, 0.6])
        offsets = np.array([[0.0, 1.0], [1.0, 0.0]])
        heads = HeadOutputs(scores, offsets)
        assert not np.shares_memory(heads.scores, scores)
        assert not np.shares_memory(heads.offsets, offsets)
        scores[0], offsets[0, 0] = 0.9, 5.0
        assert heads.scores[0] == 0.5 and heads.offsets[0, 0] == 0.0

    @pytest.mark.parametrize(
        "offsets", [["12", "34"], [[0, 1, 9], [1, 0, 9]], [0, 1], [[]]]
    )
    def test_offsets_must_be_pairs(self, offsets):
        with pytest.raises(ValidationError):
            HeadOutputs([0.5, 0.6], offsets)

    def test_unconvertible_values_are_rejected(self):
        with pytest.raises(ValueError):
            HeadOutputs([0.5, 0.6], [[0, 1], [1]])
        # strings and bools are not numbers, even where numpy would read them
        with pytest.raises(ValidationError, match="must be numbers"):
            HeadOutputs([0.5, "x"], [[0, 1], [1, 0]])
        with pytest.raises(ValidationError, match="must be numbers"):
            HeadOutputs([0.5, 0.6], [[0, 1], ["1", "0"]])
        with pytest.raises(ValidationError, match="must be numbers"):
            HeadOutputs([0.5, 0.6], [[False, True], [True, False]])
        # a bool among numbers gets a numeric dtype; it is still not a number
        with pytest.raises(ValidationError, match="must be numbers, got a bool"):
            HeadOutputs([0.5, 0.6], [[0, True], [1, 0]])
        with pytest.raises(ValidationError, match="must be numbers, got a bool"):
            HeadOutputs([0.5, 0.6], [[0.5, True], [1, 0]])
        # an object array holds what numpy cannot type; each item must be a number
        with pytest.raises(ValidationError, match="must be numbers"):
            HeadOutputs([0.5, None], [[0, 1], [1, 0]])
        with pytest.raises(ValidationError, match="must be numbers"):
            HeadOutputs([0.5, 0.6], [[0.0, None], [1, 0]])
        with pytest.raises(ValidationError, match="must be numbers"):
            HeadOutputs([0.5, 0.6], [[18446744073709551616, "3"], [1, 0]])

    def test_ints_beyond_int64_are_numbers(self):
        heads = HeadOutputs([0.5, 0.6], [[18446744073709551616, 0], [1, 0]])
        assert heads.offsets.tolist() == [[2.0**64, 0.0], [1.0, 0.0]]

    def test_scores_must_be_flat(self):
        with pytest.raises(ValidationError):
            HeadOutputs([[0.5], [0.6]], [[0, 1], [1, 0]])

    @pytest.mark.parametrize(
        ("offsets", "message"),
        [
            ([[0, 1], [float("inf"), 0]], r"\(inf, 0.0\)"),
            ([[0, 1], [2, -0.5]], r"\(2.0, -0.5\)"),
        ],
    )
    def test_first_bad_offset_pair_is_named(self, offsets, message):
        with pytest.raises(ValidationError, match=message):
            HeadOutputs([0.5, 0.6], offsets)
