"""Grounding recall, text metrics, and seeded accuracy."""
from __future__ import annotations

import inspect
import math
import random
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egoqa import metrics
from egoqa.core import InvariantBreach, PredictionSet, TemporalWindow, ValidationError
from egoqa.embedding import TrigramEmbedder
from egoqa.metrics import (
    closeqa_accuracy,
    iou_1d,
    meteor_exact,
    openqa_report,
    rouge_l_f,
    sentence_similarity,
    tokenize,
    vlg_recall,
)

from .oracles import (
    capped_search_align,
    dense_cosine,
    mean_and_sample_std,
    oracle_align,
    oracle_meteor,
    trigram_counts,
)

# A dense embedding component: 0, or a magnitude whose square neither
# underflows nor overflows.
COMPONENT = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


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
        assert r.metadata == {"queries": 1}
        assert [(name, mv.value, mv.dispersion) for name, mv in r.metrics.items()] == [
            ("recall@1_iou0.3", 1.0, None),
            ("recall@1_iou0.5", 1.0, None),
            ("recall@5_iou0.3", 1.0, None),
            ("recall@5_iou0.5", 1.0, None),
            ("mean_recall@1", 1.0, None),
        ]

    def test_rank_sensitivity(self):
        # correct window is ranked second: recall@1 misses, recall@5 hits
        gts = {"c::0": TemporalWindow(2, 8)}
        preds = {"c::0": _pred("c::0", [(20, 30, 0.9), (2, 8, 0.5)])}
        r = vlg_recall(preds, gts).metrics
        assert r["recall@1_iou0.3"].value == 0.0
        assert r["recall@5_iou0.3"].value == 1.0

    def test_threshold_sensitivity(self):
        # IoU 0.4 counts at threshold 0.3 only
        gts = {"c::0": TemporalWindow(6, 18)}
        preds = {"c::0": _pred("c::0", [(3, 12, 0.9)])}
        r = vlg_recall(preds, gts).metrics
        assert r["recall@1_iou0.3"].value == 1.0
        assert r["recall@1_iou0.5"].value == 0.0
        assert r["mean_recall@1"].value == 0.5

    def test_missing_query_rejected(self):
        gts = {"c::0": TemporalWindow(2, 8), "c::1": TemporalWindow(1, 4)}
        preds = {"c::0": _pred("c::0", [(2, 8, 0.9)])}
        with pytest.raises(ValidationError, match=r"no predictions for queries: \['c::1'\]"):
            vlg_recall(preds, gts)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="no ground-truth queries"):
            vlg_recall({}, {})

    def test_extra_predictions_ignored(self):
        gts = {"c::0": TemporalWindow(2, 8)}
        preds = {
            "c::0": _pred("c::0", [(2, 8, 0.9)]),
            "c::9": _pred("c::9", [(0, 1, 0.1)]),
        }
        assert vlg_recall(preds, gts).metrics["recall@1_iou0.3"].value == 1.0

    def test_result_invariants_enforced(self, monkeypatch):
        # A faulty IoU whose `>=` answers from a script, not from a number.
        # One window per query: the answers go to (k, m) = (1, 0.3),
        # (1, 0.5), (5, 0.3), (5, 0.5) in that order.
        class Scripted:
            def __init__(self, answers):
                self.answers = iter(answers)

            def __ge__(self, m):
                return next(self.answers)

        gts = {"c::0": TemporalWindow(2, 8)}
        preds = {"c::0": _pred("c::0", [(2, 8, 0.9)])}
        for answers, message in (
            ([False, True, False, True], "IoU 0.3 must be >= recall at IoU 0.5"),
            ([True, True, False, False], "recall@5 must be >= recall@1"),
        ):
            monkeypatch.setattr(metrics, "iou_1d", lambda w, gt: Scripted(answers))
            with pytest.raises(InvariantBreach, match=message):
                vlg_recall(preds, gts)


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
        # beyond the search budget the greedy fallback takes over
        hyp = "a b " * 40
        ref = "b a " * 40
        v = meteor_exact(hyp, ref)
        assert 0.0 <= v <= 1.0


def _best_of_three_s(hyp: str, ref: str) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        meteor_exact(hyp, ref)
        times.append(time.perf_counter() - t0)
    return min(times)


TOKENS = st.integers(2, 4).flatmap(
    lambda k: st.tuples(*[st.lists(st.sampled_from("abcd"[:k]), max_size=12)] * 2)
)


# Plain answer-like prose: function words repeat as they do in model answers.
ANSWER_TEXT = """
The person first walks into the kitchen and opens the fridge to take out a
carton of milk. They pour some of the milk into a glass on the counter, put
the carton back on the top shelf of the fridge and close the door. Next they
pick up a knife from the drawer next to the sink, cut two slices of bread on
the wooden board and spread butter on each of the slices. The plate with the
bread is carried to the table by the window, where the glass of milk is
already waiting. After eating, the person rinses the plate and the glass in
the sink, dries them with a towel and puts them in the cupboard above the
stove. Finally they wipe the counter with a cloth, switch off the light over
the table and leave the kitchen through the door to the hallway, carrying
the keys that were lying on the shelf by the door.
"""


class TestAlignment:
    @settings(max_examples=300, deadline=None)
    @given(pair=TOKENS)
    def test_equals_the_capped_search_wherever_it_finishes(self, pair):
        hyp, ref = pair
        want = capped_search_align(hyp, ref)
        if want is not None:
            assert metrics._align(hyp, ref) == want
        if len(hyp) <= 7 and len(ref) <= 7:
            assert metrics._align(hyp, ref) == oracle_align(tuple(hyp), tuple(ref))

    def test_pair_that_tripped_the_old_cap_is_exact_and_fast(self):
        hyp = "b a b b b b a b b a b b b b a a b a a"
        ref = "a b a a a b a b a a a b b a b a a b a"
        # the capped search gives up on this pair; greedy found 9 chunks
        assert capped_search_align(hyp.split(), ref.split()) is None
        assert metrics._align(hyp.split(), ref.split()) == (14, 4)
        assert _best_of_three_s(hyp, ref) <= 0.1

    def test_a_stale_heap_entry_is_skipped(self):
        # This pair reaches one state twice, the second time with more links,
        # so the search pops the first entry after it went stale.
        hyp, ref = "b c c a a b a a c b b".split(), "a b b a c c a".split()
        lines, first = inspect.getsourcelines(metrics._max_links)
        check = next(n for n, line in enumerate(lines) if "> links:" in line)
        ran = set()

        def trace(frame, event, arg):
            if frame.f_code is metrics._max_links.__code__ and event == "line":
                ran.add(frame.f_lineno)
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            got = metrics._align(hyp, ref)
        finally:
            sys.settrace(previous)
        assert lines[check + 1].strip() == "continue"
        assert first + check + 1 in ran
        assert got == oracle_align(tuple(hyp), tuple(ref)) == (7, 4)

    @pytest.mark.parametrize("alphabet", ["ab", "abc"])
    def test_random_pairs_up_to_20_tokens_score_within_100ms(self, alphabet):
        rng = random.Random(f"worst-case:{alphabet}")
        for _ in range(100):
            hyp = " ".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
            ref = " ".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
            assert _best_of_three_s(hyp, ref) <= 0.1, (hyp, ref)

    def test_long_answers_the_budget_admits_score_within_100ms(self, monkeypatch):
        # a long answer against a reference of at most 20 tokens
        words = tokenize(ANSWER_TEXT)
        rng = random.Random("long-answers")
        searched = []
        search = metrics._max_links
        monkeypatch.setattr(metrics, "_max_links", lambda h, r: searched.append(1) or search(h, r))
        for _ in range(100):
            size, short = rng.randint(21, 150), rng.randint(3, 20)
            start = rng.randrange(len(words) - size)
            answer = words[start : start + size]
            at = rng.randrange(start, start + size - short)
            reference = [rng.choice(words) if rng.random() < 0.1 else w for w in words[at : at + short]]
            assert _best_of_three_s(" ".join(answer), " ".join(reference)) <= 0.1
        assert len(searched) >= 3 * 30  # at least 30 pairs searched, 3 calls each

    def test_exact_or_greedy_depends_on_token_counts_only(self, monkeypatch):
        rng = random.Random(5)
        searched = []
        search = metrics._max_links
        monkeypatch.setattr(metrics, "_max_links", lambda h, r: searched.append(1) or search(h, r))
        # 20 tokens a side is within the budget; a 24-token reference is too
        # long, and a 60-token hypothesis against 20 exceeds the state budget
        for hyp_size, ref_size, exact in ((20, 20, True), (24, 24, False), (60, 20, False)):
            searched.clear()
            for _ in range(2):
                hyp = rng.sample(list("ab" * (hyp_size // 2)), hyp_size)
                ref = rng.sample(list("ab" * (ref_size // 2)), ref_size)
                m, chunks = metrics._align(hyp, ref)
                links = search(hyp, ref) if exact else metrics._align_greedy(hyp, ref)
                assert (m, chunks) == (ref_size, ref_size - links)
            assert bool(searched) == exact


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

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(COMPONENT, COMPONENT), min_size=1, max_size=12))
    def test_dense_vectors_score_their_exact_sum_cosine(self, pairs):
        a, b = ([p[i] for p in pairs] for i in (0, 1))
        assume(any(a) and any(b))
        # Zero components stay out of the maps: a missing index reads as 0.
        vectors = {"h": {i: x for i, x in enumerate(a) if x},
                   "r": {i: x for i, x in enumerate(b) if x}}
        got = sentence_similarity("h", "r", SimpleNamespace(embed=vectors.__getitem__))
        assert got == dense_cosine(a, b)
        assert got == pytest.approx(np.dot(a, b) / np.linalg.norm(a) / np.linalg.norm(b),
                                    abs=1e-12)

    def test_embedding_counts_every_trigram_occurrence(self):
        e = TrigramEmbedder()
        for text in ("aaaaaaa", "the cup and the cup", "ab", "", "x"):
            assert e.embed(text) == trigram_counts(text)


class TestCloseqaAccuracy:
    def _runs(self, fractions, n=10):
        runs = []
        for frac in fractions:
            correct = round(frac * n)
            run = [("yes", "yes")] * correct + [("no", "yes")] * (n - correct)
            runs.append(run)
        return runs

    def test_protocol_example(self):
        report = closeqa_accuracy(self._runs([0.4, 0.4, 0.4, 0.4, 0.9]))
        assert report.metadata == {"queries": 10, "runs": 5}
        mean, std = report.metrics["accuracy"].value, report.metrics["accuracy"].dispersion
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert std == pytest.approx(0.223607, abs=1e-6)

    def test_normalization_applied(self):
        runs = [[("Yes.", "yes")] for _ in range(5)]
        accuracy = closeqa_accuracy(runs).metrics["accuracy"]
        assert accuracy.value == 1.0
        assert accuracy.dispersion == 0.0

    def test_run_count_enforced(self):
        with pytest.raises(ValidationError, match="exactly 5 runs required, got 3"):
            closeqa_accuracy(self._runs([0.4, 0.4, 0.4]))

    def test_equal_lengths_enforced(self):
        runs = self._runs([0.4] * 5)
        runs[2] = runs[2][:-1]
        with pytest.raises(ValidationError, match="runs disagree in length"):
            closeqa_accuracy(runs)

    def test_empty_runs_rejected(self):
        with pytest.raises(ValidationError, match="runs contain no question pairs"):
            closeqa_accuracy([[], [], [], [], []])

    def test_correct_answer_without_text_rejected(self):
        # Else the blank predictions would score 50% against "?".
        runs = [[("", "?"), ("", "on the mat")] for _ in range(5)]
        with pytest.raises(ValidationError, match=r"ground-truth answer '\?' has no text"):
            closeqa_accuracy(runs)

    def test_each_correct_answer_normalized_once(self, monkeypatch):
        calls = []
        normalize = metrics.normalize_answer
        monkeypatch.setattr(metrics, "normalize_answer", lambda s: calls.append(s) or normalize(s))
        golds = [f"answer {q}" for q in range(30)]
        runs = [[(f"Answer {q}." if (q + r) % 3 else "no", g) for q, g in enumerate(golds)]
                for r in range(5)]
        accuracy = closeqa_accuracy(runs).metrics["accuracy"]
        assert len(calls) == 5 * 30 + 30
        want = [sum(1 for q in range(30) if (q + r) % 3) / 30 for r in range(5)]
        assert (accuracy.value, accuracy.dispersion) == mean_and_sample_std(want)

    @settings(max_examples=300, deadline=None)
    @given(hits=st.integers(1, 7).flatmap(lambda n: st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=5, max_size=5)))
    def test_mean_and_std_are_the_stdlib_aggregates(self, hits):
        runs = [[("yes" if hit else "no", "yes") for hit in run] for run in hits]
        accuracy = closeqa_accuracy(runs).metrics["accuracy"]
        want = mean_and_sample_std([sum(run) / len(run) for run in hits])
        assert (accuracy.value, accuracy.dispersion) == want


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
        with pytest.raises(ValidationError, match="no hypothesis/reference pairs"):
            openqa_report([], TrigramEmbedder())

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(*[st.text(st.sampled_from("ab cd."), max_size=20)] * 2),
                          min_size=1, max_size=9))
    def test_each_mean_is_the_exact_sum_over_n(self, pairs):
        e = TrigramEmbedder()
        report = openqa_report(pairs, e)
        for name, metric in [
            ("similarity", lambda h, r: sentence_similarity(h, r, e)),
            ("rouge_l", rouge_l_f), ("meteor", meteor_exact),
        ]:
            xs = [metric(h, r) for h, r in pairs]
            assert report.metrics[name].value == math.fsum(xs) / len(xs)
