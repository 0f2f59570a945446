"""Decode model head outputs into windows and score them against truth.

Each timestep proposes a window from its boundary-distance offsets; greedy
NMS keeps the best non-overlapping ones. Recall@k at IoU 0.3/0.5 follows,
plus the text metrics used for open-ended answers.
"""
from egoqa.core import PredictionSet, TemporalWindow
from egoqa.embedding import TrigramEmbedder
from egoqa.localization import HeadOutputs, decode_windows
from egoqa.metrics import meteor_exact, rouge_l_f, sentence_similarity, vlg_recall

# ten timesteps over a 50 s clip; two confident regions
heads = HeadOutputs(
    scores=(0.03, 0.10, 0.85, 0.80, 0.12, 0.04, 0.55, 0.50, 0.06, 0.03),
    offsets=((0.5, 0.5), (0.5, 1.5), (1.0, 2.0), (2.0, 1.0), (0.5, 0.5),
             (0.5, 0.5), (1.0, 1.5), (2.0, 0.5), (0.5, 0.5), (0.5, 0.5)),
)
windows = decode_windows(heads, duration_s=50.0)
print("decoded windows:")
for w, score in windows:
    print(f"  [{w.start_s:5.2f}, {w.end_s:5.2f}]  score {score:.2f}")

preds = {"clip-a::0": PredictionSet("clip-a", "clip-a::0", windows)}
gts = {"clip-a::0": TemporalWindow(9.0, 21.0)}
print("\nrecall table:")
for name, mv in vlg_recall(preds, gts).metrics.items():
    print(f"  {name:18s} {100.0 * mv.value:5.1f}")

print("\ntext metrics:")
hyp, ref = "in the kitchen sink", "in the sink"
print(f"  rouge_l_f    : {rouge_l_f(hyp, ref):.4f}")
print(f"  meteor_exact : {meteor_exact(hyp, ref):.4f}")
print(f"  similarity   : {sentence_similarity(hyp, ref, TrigramEmbedder()):.4f}")
