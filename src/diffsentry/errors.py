"""Exception types shared across the package."""


class DiffsentryError(Exception):
    """Base class for all package errors."""


# -- waveform generation -----------------------------------------------------

class NonPositiveParameter(DiffsentryError, ValueError):
    """An electrical parameter that must be strictly positive is not."""


class FaultFractionOutOfRange(DiffsentryError, ValueError):
    """A winding fault percentage lies outside [0, 100]."""


class SingularMatrix(DiffsentryError, ValueError):
    """The circuit matrix is numerically singular for these parameters."""


class UnknownDisturbance(DiffsentryError, ValueError):
    """Disturbance kind is not one of the six supported classes."""


class ParameterOutOfRange(DiffsentryError, ValueError):
    """A generator or corpus-plan parameter violates its range."""


class PlanEmpty(DiffsentryError, ValueError):
    """A corpus plan enumerates no cases."""


class IoFailure(DiffsentryError, OSError):
    """Reading or writing a corpus artifact failed."""


# -- detection / features ----------------------------------------------------

class TooShort(DiffsentryError, ValueError):
    """Input sequence is shorter than the operation requires."""


class WrongShape(DiffsentryError, ValueError):
    """A sample array does not have the (N, 3) shape of a 3-phase record."""


class NonFiniteSample(DiffsentryError, ValueError):
    """A waveform sample is NaN or infinite."""


class WrongWindowLength(DiffsentryError, ValueError):
    """A feature window does not have the length its task requires."""


class IndexOutOfRange(DiffsentryError, IndexError):
    """A coefficient or bin index is outside the valid range."""


class SingularDesign(DiffsentryError, ValueError):
    """The autoregressive design matrix is rank-deficient."""


# -- ensembles ----------------------------------------------------------------

class EmptyChild(DiffsentryError, ValueError):
    """A candidate split leaves one side empty."""


class EmptyDataset(DiffsentryError, ValueError):
    """Training data has no rows."""


class NonFiniteFeature(DiffsentryError, ValueError):
    """A training feature value is NaN or infinite."""


class SchemaMismatch(DiffsentryError, ValueError):
    """Feature schema hash does not match the model's."""


class SingleClass(DiffsentryError, ValueError):
    """Boosting requires at least two classes."""


class NonFiniteLoss(DiffsentryError, FloatingPointError):
    """Training loss became NaN or infinite."""


# -- resampling ----------------------------------------------------------------

class TooFewSamples(DiffsentryError, ValueError):
    """Not enough minority samples for the requested neighbourhood."""


class EmptyMinority(DiffsentryError, ValueError):
    """NearMiss needs a non-empty minority reference set."""


# -- evaluation ----------------------------------------------------------------

class ZeroSupportClass(DiffsentryError, ValueError):
    """Balanced accuracy is undefined when a class has no true members."""


class EmptyCounts(DiffsentryError, ValueError):
    """Accuracy is undefined on empty confusion counts."""


class ClassTooSmall(DiffsentryError, ValueError):
    """Stratified k-fold needs at least k members per class."""


# -- pipeline -------------------------------------------------------------------

class ClassMissing(DiffsentryError, ValueError):
    """A training corpus lacks a class required by a pipeline task."""

    def __init__(self, message, task=None, missing=None):
        super().__init__(message)
        self.task = task
        self.missing = tuple(missing or ())


class InvalidGrid(DiffsentryError, ValueError):
    """A training grid names an unknown key or holds a point that is not a
    valid ``GbcConfig``."""


class IncompleteModel(DiffsentryError, ValueError):
    """A pipeline decision was requested before all model slots were set."""
