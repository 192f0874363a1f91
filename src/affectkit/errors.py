"""Exception hierarchy shared across the toolkit.

Every raised error subclasses :class:`AffectKitError` so callers can catch
toolkit failures with one handler while tests pin the specific class.
"""


class AffectKitError(Exception):
    """Base class for all toolkit errors."""


class DegenerateInputWarning(UserWarning):
    """Metric input hit a 0/0 case; a documented conventional value was used.

    Emitted (never raised) so batch evaluation keeps going; reports count
    these occurrences.
    """


# ---------------------------------------------------------------------------
# label-space / sample validation

class ValueOutOfRange(AffectKitError):
    """A value lies outside its documented range (e.g. valence outside [-1,1])."""


class BadMask(AffectKitError):
    """An AU value is set at a position whose annotation mask is 0."""


class UnknownClass(AffectKitError):
    """Expression class id outside {0..6}."""


class UnknownAU(AffectKitError):
    """AU id not in the canonical 17-id list."""


# ---------------------------------------------------------------------------
# relatedness / coupling

class BadTableFile(AffectKitError):
    """Relatedness file line cannot be parsed."""


# ---------------------------------------------------------------------------
# metrics

class LengthMismatch(AffectKitError):
    """Prediction and annotation vectors differ in length."""


# ---------------------------------------------------------------------------
# losses

class EmptyMaskBatch(AffectKitError):
    """No sample in the batch carries any AU annotation."""


# ---------------------------------------------------------------------------
# autodiff

class ShapeMismatch(AffectKitError):
    """Operand shapes are incompatible for the requested operation."""


class NonScalarRoot(AffectKitError):
    """backward() requires a scalar root node."""


class BadCheckpoint(AffectKitError):
    """Checkpoint file is malformed or has the wrong magic/version."""


# ---------------------------------------------------------------------------
# models

class InvalidSpec(AffectKitError):
    """Model specification violates its invariants."""


class EmptySequence(AffectKitError):
    """A prediction was requested for an empty frame sequence."""


# ---------------------------------------------------------------------------
# sampler

class Infeasible(AffectKitError):
    """Total batch size cannot cover every nonempty task set."""


# ---------------------------------------------------------------------------
# fusion

class ZeroWeightSum(AffectKitError):
    """Fusion weights sum to zero for some output dimension."""


class NegativeWeight(AffectKitError):
    """Validation-CCC fusion weights must be finite and non-negative."""


class KeyMisalignment(AffectKitError):
    """Ensemble members disagree on prediction keys."""


class EvenWindow(AffectKitError):
    """Median filter window must be odd."""


class BadAlpha(AffectKitError):
    """Smoothing factor must lie in (0, 1]."""


# ---------------------------------------------------------------------------
# zero-shot

class MissingAUPrediction(AffectKitError):
    """Prediction record lacks AU probabilities needed by a compound class."""


class EmptyDefs(AffectKitError):
    """Compound classification needs at least one class definition."""


# ---------------------------------------------------------------------------
# preprocessing

class DegenerateLandmarks(AffectKitError):
    """Source landmarks are collinear; the affine fit is underdetermined."""


class BadRange(AffectKitError):
    """Normalization range must satisfy hi > lo."""


class SignalTooShort(AffectKitError):
    """Audio signal is shorter than one spectrogram window."""


# ---------------------------------------------------------------------------
# harness

class ConfigError(AffectKitError):
    """Run configuration is missing or inconsistent."""


class DivergedLoss(AffectKitError):
    """Training loss became non-finite."""


class IncompatibleHeads(AffectKitError):
    """Evaluation requested a task the model has no head for."""
