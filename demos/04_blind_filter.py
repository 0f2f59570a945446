"""Purge test questions a text-only answerer can solve without the video.

Each sample runs ten seeded multiple-choice trials against a blind
answerer; a sample is removed only when all ten picks are correct. The
frequency-prior answerer exploits answer popularity, the way a text-only
model exploits dataset bias.
"""
from egoqa.blindfilter import FrequencyPriorAnswerer, TRIALS, filter_rows
from egoqa.core import QASample, TemporalWindow
from egoqa.seeding import derive_seed

# "yes" dominates the answer distribution, so yes-questions are guessable
samples = []
for i in range(6):
    samples.append(QASample(
        f"clip-{i}", f"Did I close the door in room {i}?", "yes",
        TemporalWindow(float(i), float(i) + 2.0),
        ("no", "maybe", "halfway"), split="test",
    ))
samples.append(QASample(
    "clip-6", "What did I carry upstairs?", "a laundry basket",
    TemporalWindow(3.0, 9.0),
    ("a toolbox", "a ladder", "a chair"), split="test",
))
samples.append(QASample(
    "clip-7", "Where did I leave the keys?", "on the hook",
    TemporalWindow(1.0, 4.0),
    ("in the drawer", "on the table", "in my pocket"), split="test",
))

# the prior comes from the training split's answer distribution; there the
# distractors of the last two questions outnumber their true answers
train_answers = (
    ["yes"] * 10
    + ["a toolbox"] * 3 + ["in the drawer"] * 3
    + ["a laundry basket", "on the hook", "no"]
)
answerer = FrequencyPriorAnswerer(train_answers)
seeds = [derive_seed("blind-trial", 11, t) for t in range(TRIALS)]
rows = list(filter_rows(samples, answerer, seeds))
removed = sum(all(outcomes) for _, outcomes in rows)

print(f"total {len(rows)}, removed {removed}, kept {len(rows) - removed}")
for sample, outcomes in rows:
    wins = sum(outcomes)
    flag = "REMOVED" if all(outcomes) else "kept"
    print(f"  {flag:8s} {wins:2d}/10 correct  {sample.question}")
