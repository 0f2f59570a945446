"""Localization training objectives and window decoding.

Pure numpy kernels: binary focal loss and 1D DIoU loss with analytic
gradients (checked against central finite differences in the tests), token
cross-entropy, the 0.5/0.5 grounding/answering loss combination, label
assignment for a per-timestep classification + regression head, and greedy
NMS decoding.

HeadOutputs validation and NMS decoding run as array operations that
repeat the scalar definitions' arithmetic in the same order, so decoded
windows equal the scalar greedy NMS bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .core import InvariantBreach, TemporalWindow, ValidationError, lazy_import

np = lazy_import("numpy")

# Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-7

# Guard band above the declared 1e-6 distribution tolerance so numerical
# probing (finite-difference steps of 1e-6) stays admissible.
DIST_SUM_TOL = 2e-6


class LengthMismatch(ValidationError):
    """Paired sequences have different lengths."""


class NotADistribution(ValidationError):
    """A row fails to be a probability distribution."""


@dataclass(frozen=True, eq=False)
class HeadOutputs:
    """Per-timestep relevance scores and boundary-distance offsets.

    Offsets are (left, right) distances in feature-index units; scores are
    strict probabilities. Any sequences of numbers are accepted, but not
    of strings or bools. The fields hold read-only float64 copies, scores
    of shape (n,) and offsets of shape (n, 2), so a caller's array is never
    aliased or frozen.
    """

    scores: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        scores = np.array(self.scores)
        offsets = _pairs_array(self.offsets)
        # numpy would read strings and bools as numbers; their dtype tells. An
        # object array (ints beyond int64, None, a mix) may convert a numeric
        # string among numbers, so there each item's type must tell.
        if any(a.dtype.kind in "bUS" or a.dtype.kind == "O" and {*map(type, a.flat)} - {int, float}
               for a in (scores, offsets)):
            raise ValidationError(
                f"scores and offsets must be numbers, got {scores.dtype} and {offsets.dtype}"
            )
        scores = scores.astype(np.float64, copy=False)
        offsets = offsets.astype(np.float64, copy=False)
        if offsets.shape == (0,):
            offsets = offsets.reshape(0, 2)
        if scores.ndim != 1 or offsets.ndim != 2 or offsets.shape[1] != 2:
            raise ValidationError(
                "scores must be a list of numbers and offsets a list of "
                f"[left, right] pairs, got shapes {scores.shape} and {offsets.shape}"
            )
        if len(scores) != len(offsets):
            raise LengthMismatch(f"{len(scores)} scores vs {len(offsets)} offsets")
        bad = ~((scores > 0.0) & (scores < 1.0))
        if bad.any():
            raise ValidationError(
                f"scores must lie strictly in (0, 1), got {float(scores[bad][0])}"
            )
        bad = ~(np.isfinite(offsets) & (offsets >= 0.0)).all(axis=1)
        if bad.any():
            left, right = offsets[bad][0].tolist()
            raise ValidationError(
                f"offsets must be finite and >= 0, got ({left}, {right})"
            )
        # A bool among numbers gets a numeric dtype, so only an item read as 0
        # or 1 can be one. A score of 0 or 1 already failed its range.
        if not isinstance(self.offsets, np.ndarray):
            for i, j in zip(*np.nonzero((offsets == 0.0) | (offsets == 1.0))):
                if isinstance(self.offsets[i][j], (bool, np.bool_)):
                    raise ValidationError("offsets must be numbers, got a bool")
        scores.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "offsets", offsets)


def _pairs_array(pairs) -> np.ndarray:
    """np.array(pairs), through one flat list when pairs is a list of 2-item
    sequences whose items make a 1-D numeric array: numpy's discovery of
    nested sequences costs more than the flattening."""
    if type(pairs) is list:
        try:
            if list(map(len, pairs)).count(2) == len(pairs):
                flat = np.array(list(chain.from_iterable(pairs)))
                if flat.ndim == 1 and flat.dtype.kind in "fiu":
                    return flat.reshape(-1, 2)
        except (TypeError, ValueError):
            pass
    return np.array(pairs)


@dataclass(frozen=True)
class LabelAssignment:
    """Per-timestep positives and regression targets in index units.

    targets[t] is (left, right) for positive timesteps and None otherwise.
    """

    positives: tuple[bool, ...]
    targets: tuple[tuple[float, float] | None, ...]

    def __post_init__(self) -> None:
        if len(self.positives) != len(self.targets):
            raise LengthMismatch("positives and targets must align")
        for pos, target in zip(self.positives, self.targets):
            if pos != (target is not None):
                raise InvariantBreach("targets must exist exactly at positives")
            if target is not None and (target[0] < 0 or target[1] < 0):
                raise InvariantBreach(f"regression targets must be >= 0, got {target}")


@dataclass(frozen=True)
class LossBreakdown:
    focal: float
    diou: float
    vlg: float
    qa: float
    total: float

    def __post_init__(self) -> None:
        if abs(self.vlg - (self.focal + self.diou)) > 1e-12:
            raise InvariantBreach("vlg must equal focal + diou")
        if abs(self.total - (0.5 * self.vlg + 0.5 * self.qa)) > 1e-12:
            raise InvariantBreach("total must equal 0.5*vlg + 0.5*qa")


def focal_loss(
    scores: Sequence[float],
    positives: Sequence[bool],
    gamma: float = 2.0,
    alpha_bal: float = 0.25,
) -> tuple[float, np.ndarray]:
    """Mean binary focal loss over timesteps, with the gradient wrt scores.

    value = mean(-a*y*(1-p)^g*log p - (1-a)*(1-y)*p^g*log(1-p)). Scores are
    clamped to [PROB_EPS, 1 - PROB_EPS]; the gradient treats clamped points
    as interior (the clamp is a numerical guard, not part of the model).
    """
    p = np.asarray(scores, dtype=np.float64)
    y = np.asarray(positives, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise LengthMismatch(f"scores shape {p.shape} vs positives shape {y.shape}")
    if p.size == 0:
        raise ValidationError("focal_loss requires at least one timestep")
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)

    log_p = np.log(p)
    log_q = np.log1p(-p)
    one_m = 1.0 - p
    pos_term = -alpha_bal * y * one_m**gamma * log_p
    neg_term = -(1.0 - alpha_bal) * (1.0 - y) * p**gamma * log_q
    value = float(np.mean(pos_term + neg_term))

    # d/dp of each term; the gamma-weighted powers vanish identically at
    # gamma = 0, so skip them there instead of evaluating 0 * x^(-1).
    if gamma != 0.0:
        g_pos = gamma * one_m ** (gamma - 1.0) * log_p
        g_neg = gamma * p ** (gamma - 1.0) * log_q
    else:
        g_pos = np.zeros_like(p)
        g_neg = np.zeros_like(p)
    grad_pos = alpha_bal * (g_pos - one_m**gamma / p)
    grad_neg = (1.0 - alpha_bal) * (p**gamma / one_m - g_neg)
    grad = (y * grad_pos + (1.0 - y) * grad_neg) / p.size
    return value, grad


def diou_loss_1d(
    pred: TemporalWindow, gt: TemporalWindow
) -> tuple[float, np.ndarray]:
    """1 - IoU + (center distance)^2 / (enclosing length)^2, with gradient.

    The gradient is wrt (pred.start_s, pred.end_s); at non-differentiable
    tie configurations it is the one-sided limit. Two identical zero-length
    windows enclose nothing; the loss there is defined as 0 with a zero
    gradient (the limit along pred -> gt).
    """
    s1, e1 = pred.start_s, pred.end_s
    s2, e2 = gt.start_s, gt.end_s
    c = max(e1, e2) - min(s1, s2)
    if c <= 0.0:
        return 0.0, np.zeros(2)

    inter = max(0.0, min(e1, e2) - max(s1, s2))
    union = (e1 - s1) + (e2 - s2) - inter
    iou = inter / union if union > 0 else 0.0

    # Branch indicators double as one-sided subgradient choices at ties.
    if inter > 0.0:
        di_ds1 = -1.0 if s1 >= s2 else 0.0
        di_de1 = 1.0 if e1 <= e2 else 0.0
    else:
        di_ds1 = di_de1 = 0.0
    du_ds1 = -1.0 - di_ds1
    du_de1 = 1.0 - di_de1
    if union > 0:
        diou_ds1 = (di_ds1 * union - inter * du_ds1) / union**2
        diou_de1 = (di_de1 * union - inter * du_de1) / union**2
    else:
        diou_ds1 = diou_de1 = 0.0

    mid_diff = (s1 + e1) / 2.0 - (s2 + e2) / 2.0
    d = abs(mid_diff)
    sign = 1.0 if mid_diff >= 0 else -1.0
    dd_ds1 = 0.5 * sign
    dd_de1 = 0.5 * sign
    dc_ds1 = -1.0 if s1 <= s2 else 0.0
    dc_de1 = 1.0 if e1 >= e2 else 0.0

    value = 1.0 - iou + d * d / (c * c)
    dpen_ds1 = 2.0 * d * dd_ds1 / c**2 - 2.0 * d * d * dc_ds1 / c**3
    dpen_de1 = 2.0 * d * dd_de1 / c**2 - 2.0 * d * d * dc_de1 / c**3
    grad = np.array([-diou_ds1 + dpen_ds1, -diou_de1 + dpen_de1])
    return float(value), grad


def token_cross_entropy(
    pred_dists: Sequence[Sequence[float]], target_ids: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Mean negative log-probability of the target tokens, with gradient.

    Each row of pred_dists must sum to 1 (within a small tolerance) with
    non-negative entries. The gradient treats the coordinates as free
    variables: -1/(N * p_target) at target entries, 0 elsewhere.
    """
    dists = np.asarray(pred_dists, dtype=np.float64)
    targets = np.asarray(target_ids, dtype=np.int64)
    if dists.ndim != 2:
        raise NotADistribution("pred_dists must be a 2D array of rows")
    if targets.ndim != 1 or dists.shape[0] != targets.shape[0]:
        raise LengthMismatch(
            f"{dists.shape[0]} distributions vs {targets.shape[0]} targets"
        )
    if dists.shape[0] == 0:
        raise ValidationError("token_cross_entropy requires at least one token")
    if np.any(targets < 0) or np.any(targets >= dists.shape[1]):
        raise LengthMismatch("target id outside vocabulary")
    sums = dists.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > DIST_SUM_TOL) or np.any(dists < -DIST_SUM_TOL):
        raise NotADistribution("each row must be a probability distribution")

    n = dists.shape[0]
    p_target = np.clip(dists[np.arange(n), targets], PROB_EPS, 1.0)
    value = float(np.mean(-np.log(p_target)))
    grad = np.zeros_like(dists)
    grad[np.arange(n), targets] = -1.0 / (n * p_target)
    return value, grad


def combine_losses(focal: float, diou: float, qa: float) -> LossBreakdown:
    """Weighted sum: grounding (focal + diou) and answering, half each."""
    for name, value in (("focal", focal), ("diou", diou), ("qa", qa)):
        if not np.isfinite(value) or value < 0:
            raise ValidationError(f"{name} loss must be finite and >= 0, got {value}")
    vlg = focal + diou
    return LossBreakdown(
        focal=focal, diou=diou, vlg=vlg, qa=qa, total=0.5 * vlg + 0.5 * qa
    )


def check_duration(duration_s: float) -> None:
    """Reject a clip duration that is not finite and > 0 (NaN included)."""
    if not (duration_s > 0 and math.isfinite(duration_s)):
        raise ValidationError(f"duration_s must be finite and > 0, got {duration_s}")


def assign_labels(
    n_steps: int, gt: TemporalWindow, duration_s: float
) -> LabelAssignment:
    """Mark timesteps whose center time lies inside the target window.

    Center of timestep t is (t + 0.5) * duration_s / n_steps; the interval
    test is closed on both ends. Regression targets are the distances from
    the center to the window boundaries, in index units.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    check_duration(duration_s)
    scale = n_steps / duration_s
    positives = []
    targets: list[tuple[float, float] | None] = []
    for t in range(n_steps):
        center_s = (t + 0.5) * duration_s / n_steps
        if gt.start_s <= center_s <= gt.end_s:
            positives.append(True)
            center_idx = t + 0.5
            targets.append(
                (center_idx - gt.start_s * scale, gt.end_s * scale - center_idx)
            )
        else:
            positives.append(False)
            targets.append(None)
    return LabelAssignment(tuple(positives), tuple(targets))


def _clamp(x: np.ndarray, hi: float) -> np.ndarray:
    """min(max(0.0, x), hi) elementwise with Python's max/min semantics.

    np.maximum(0.0, -0.0) returns -0.0, which Python's max does not, and
    the sign of a zero endpoint shows in the written JSON.
    """
    return np.where(x > 0.0, np.where(hi < x, hi, x), 0.0)


def decode_windows(
    heads: HeadOutputs,
    duration_s: float,
    score_threshold: float = 0.05,
    nms_iou: float = 0.5,
    top_k: int = 5,
) -> tuple[tuple[TemporalWindow, float], ...]:
    """Greedy hard NMS over per-timestep boundary candidates.

    Timestep t proposes ((t - left) * step, (t + right) * step) seconds,
    clamped to the clip. Candidates under score_threshold are dropped;
    survivors are taken best-first, suppressing any candidate with IoU >=
    nms_iou against an already-taken window, until top_k are chosen. Ties
    rank by earlier start, then lower timestep index. IoU is computed as
    metrics.iou_1d does.
    """
    check_duration(duration_s)
    n = len(heads.scores)
    if n == 0:
        return ()
    step = duration_s / n
    scores, offsets = heads.scores, heads.offsets
    t = np.flatnonzero(~(scores < score_threshold))
    score = scores[t]
    start = _clamp((t - offsets[t, 0]) * step, duration_s)
    end = _clamp((t + offsets[t, 1]) * step, duration_s)
    order = np.lexsort((t, start, -score))
    score, start, end = score[order], start[order], end[order]

    taken: list[tuple[TemporalWindow, float]] = []
    while len(taken) < top_k and score.size:
        s0, e0 = start[0], end[0]
        taken.append((TemporalWindow(float(s0), float(e0)), float(score[0])))
        score, start, end = score[1:], start[1:], end[1:]
        inter = np.maximum(0.0, np.minimum(end, e0) - np.maximum(start, s0))
        union = (end - start) + (e0 - s0) - inter
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
        live = ~(iou >= nms_iou)
        score, start, end = score[live], start[live], end[live]
    return tuple(taken)
