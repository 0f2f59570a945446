"""Grounded QA dataset synthesis and evaluation for timestamped narrations.

The toolkit turns per-clip narration tracks into question-answer pairs with
temporal grounding windows (window estimation, chunking, prompt-driven
generation, distractor creation, blind filtering) and scores predictions
(grounding recall, text metrics, seeded close-ended accuracy) next to
numerically verified localization losses.
"""
from __future__ import annotations

__version__ = "0.1.0"
