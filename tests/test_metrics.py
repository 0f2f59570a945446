"""Grounding recall, text metrics, and seeded accuracy."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from egoqa.core import InvariantBreach, PredictionSet, TemporalWindow
from egoqa.embedding import TRIGRAM_DIM, TrigramEmbedder
from egoqa.metrics import (
    EmptyEvaluation,
    MissingQuery,
    RunLengthMismatch,
    VLGResult,
    closeqa_accuracy,
    iou_1d,
    meteor_exact,
    openqa_report,
    rouge_l_f,
    sentence_similarity,
    tokenize,
    vlg_recall,
)

from .oracles import oracle_meteor


class TestIou:
    def test_known_value(self):
        assert iou_1d(TemporalWindow(0, 10), TemporalWindow(5, 15)) == pytest.approx(1 / 3)

    def test_disjoint_is_zero(self):
        assert iou_1d(TemporalWindow(0, 1), TemporalWindow(2, 3)) == 0.0

    def test_identical_is_one(self):
        assert iou_1d(TemporalWindow(2, 6), TemporalWindow(2, 6)) == 1.0

    def test_zero_union_is_zero(self):
        assert iou_1d(TemporalWindow(3, 3), TemporalWindow(3, 3)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = sorted(rng.uniform(0, 50, 2))
            b = sorted(rng.uniform(0, 50, 2))
            wa, wb = TemporalWindow(*a), TemporalWindow(*b)
            assert iou_1d(wa, wb) == pytest.approx(iou_1d(wb, wa), abs=1e-15)


def _pred(qid, windows):
    return PredictionSet(
        clip_uid=qid.split("::")[0],
        query_id=qid,
        windows=tuple((TemporalWindow(s, e), sc) for s, e, sc in windows),
    )


class TestVlgRecall:
    def test_perfect_predictions(self):
        gts = {"c::0": TemporalWindow(2, 8)}
        preds = {"c::0": _pred("c::0", [(2, 8, 0.9)])}
        r = vlg_recall(preds, gts)
        assert r.as_dict() == {
            "recall@1_iou0.3": 1.0,
            "recall@1_iou0.5": 1.0,
            "recall@5_iou0.3": 1.0,
            "recall@5_iou0.5": 1.0,
            "mean_recall@1": 1.0,
        }

    def test_rank_sensitivity(self):
        # correct window is ranked second: recall@1 misses, recall@5 hits
        gts = {"c::0": TemporalWindow(2, 8)}
        preds = {"c::0": _pred("c::0", [(20, 30, 0.9), (2, 8, 0.5)])}
        r = vlg_recall(preds, gts)
        assert r.r1_at_03 == 0.0
        assert r.r5_at_03 == 1.0

    def test_threshold_sensitivity(self):
        # IoU 0.4 counts at threshold 0.3 only
        gts = {"c::0": TemporalWindow(6, 18)}
        preds = {"c::0": _pred("c::0", [(3, 12, 0.9)])}
        r = vlg_recall(preds, gts)
        assert r.r1_at_03 == 1.0
        assert r.r1_at_05 == 0.0
        assert r.mean_r1 == 0.5

    def test_missing_query_rejected(self):
        gts = {"c::0": TemporalWindow(2, 8), "c::1": TemporalWindow(1, 4)}
        preds = {"c::0": _pred("c::0", [(2, 8, 0.9)])}
        with pytest.raises(MissingQuery):
            vlg_recall(preds, gts)

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvaluation):
            vlg_recall({}, {})

    def test_extra_predictions_ignored(self):
        gts = {"c::0": TemporalWindow(2, 8)}
        preds = {
            "c::0": _pred("c::0", [(2, 8, 0.9)]),
            "c::9": _pred("c::9", [(0, 1, 0.1)]),
        }
        assert vlg_recall(preds, gts).r1_at_03 == 1.0

    def test_result_invariants_enforced(self):
        with pytest.raises(InvariantBreach):
            VLGResult(0.5, 0.6, 0.5, 0.6, 0.55)  # looser threshold cannot do worse
        with pytest.raises(InvariantBreach):
            VLGResult(0.5, 0.5, 0.4, 0.5, 0.5)  # deeper k cannot do worse
        with pytest.raises(InvariantBreach):
            VLGResult(0.6, 0.4, 0.6, 0.4, 0.55)  # mean_r1 must be exact


class TestTokenize:
    def test_lowercases_and_splits_on_nonalnum(self):
        assert tokenize("In the Fridge!") == ["in", "the", "fridge"]

    def test_digits_kept(self):
        assert tokenize("cut 2 pieces") == ["cut", "2", "pieces"]

    def test_empty(self):
        assert tokenize("...") == []


class TestRougeL:
    def test_fridge_example(self):
        v = rouge_l_f("in the fridge", "inside the refrigerator")
        assert v == pytest.approx(1 / 3, abs=1e-9)

    def test_identical_is_one(self):
        assert rouge_l_f("wash the cup", "wash the cup") == 1.0

    def test_no_overlap_is_zero(self):
        assert rouge_l_f("abc def", "ghi jkl") == 0.0

    def test_subsequence_order_matters(self):
        # common subsequence of "a b" and "b a" has length 1
        assert rouge_l_f("a b", "b a") == pytest.approx(0.5)

    def test_symmetric_for_equal_lengths(self):
        assert rouge_l_f("a b c", "a x c") == pytest.approx(rouge_l_f("a x c", "a b c"))


class TestMeteorExact:
    def test_identical_five_words(self):
        v = meteor_exact("open the fridge door now", "open the fridge door now")
        assert v == pytest.approx(0.996, abs=1e-9)

    def test_no_overlap_is_zero(self):
        assert meteor_exact("abc", "xyz") == 0.0

    def test_fragmentation_penalty_bites(self):
        contiguous = meteor_exact("a b c d", "a b c d")
        scrambled = meteor_exact("d c b a", "a b c d")
        assert scrambled < contiguous

    def test_matches_oracle_on_fuzzed_pairs(self):
        rng = np.random.default_rng(29)
        alphabet = ["a", "b", "c"]
        for _ in range(400):
            hyp = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
            ref = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
            got = meteor_exact(" ".join(hyp), " ".join(ref))
            want = oracle_meteor(hyp, ref)
            assert got == pytest.approx(want, abs=1e-12), (hyp, ref)

    def test_long_inputs_stay_finite_and_bounded(self):
        # beyond the exact-search cap the greedy fallback takes over
        hyp = "a b " * 40
        ref = "b a " * 40
        v = meteor_exact(hyp, ref)
        assert 0.0 <= v <= 1.0


class TestSentenceSimilarity:
    def test_identical_text_scores_one(self):
        e = TrigramEmbedder()
        assert sentence_similarity("wash the cup", "wash the cup", e) == pytest.approx(1.0)

    def test_disjoint_trigrams_score_zero(self):
        e = TrigramEmbedder()
        v = sentence_similarity("aaaa", "bbbb", e)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_case_insensitive(self):
        e = TrigramEmbedder()
        assert sentence_similarity("The Cup", "the cup", e) == pytest.approx(1.0)

    def test_embedding_counts_every_trigram_occurrence(self):
        def reference(text):
            grams = [text[i : i + 3] for i in range(len(text) - 2)] or [text]
            vec = np.zeros(TRIGRAM_DIM)
            for gram in grams:
                digest = hashlib.blake2b(gram.encode(), digest_size=8).digest()
                vec[int.from_bytes(digest, "big") % TRIGRAM_DIM] += 1.0
            return vec / np.linalg.norm(vec)

        e = TrigramEmbedder()
        for text in ("aaaaaaa", "the cup and the cup", "ab", "", "x"):
            assert e.embed(text).tobytes() == reference(text).tobytes()


class TestCloseqaAccuracy:
    def _runs(self, fractions, n=10):
        runs = []
        for frac in fractions:
            correct = round(frac * n)
            run = [("yes", "yes")] * correct + [("no", "yes")] * (n - correct)
            runs.append(run)
        return runs

    def test_protocol_example(self):
        mean, std = closeqa_accuracy(self._runs([0.4, 0.4, 0.4, 0.4, 0.9]))
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert std == pytest.approx(0.223607, abs=1e-6)

    def test_normalization_applied(self):
        runs = [[("Yes.", "yes")] for _ in range(5)]
        mean, std = closeqa_accuracy(runs)
        assert mean == 1.0
        assert std == 0.0

    def test_run_count_enforced(self):
        with pytest.raises(RunLengthMismatch):
            closeqa_accuracy(self._runs([0.4, 0.4, 0.4]))

    def test_equal_lengths_enforced(self):
        runs = self._runs([0.4] * 5)
        runs[2] = runs[2][:-1]
        with pytest.raises(RunLengthMismatch):
            closeqa_accuracy(runs)

    def test_empty_runs_rejected(self):
        with pytest.raises(EmptyEvaluation):
            closeqa_accuracy([[], [], [], [], []])


class TestOpenqaReport:
    def test_metric_keys_and_ranges(self):
        pairs = [("in the fridge", "in the fridge"), ("a cup", "a plate")]
        report = openqa_report(pairs, TrigramEmbedder())
        assert set(report.metrics) == {"similarity", "rouge_l", "meteor"}
        assert report.metadata["embedder"] == "offline-sim"
        assert report.metadata["pairs"] == 2
        for mv in report.metrics.values():
            assert -1.0 <= mv.value <= 1.0

    def test_perfect_pairs(self):
        pairs = [("wash the cup", "wash the cup")]
        report = openqa_report(pairs, TrigramEmbedder())
        assert report.metrics["rouge_l"].value == 1.0
        assert report.metrics["similarity"].value == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvaluation):
            openqa_report([], TrigramEmbedder())
