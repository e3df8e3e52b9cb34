"""Typed errors shared across the toolkit.

Step-precondition violations each name the inequality they broke, so that
certificate replay failures and constructor dead-ends are distinguishable
without string matching.
"""
from __future__ import annotations


class GallaiKitError(Exception):
    """Base class for all toolkit errors."""


class BadSize(GallaiKitError):
    """A colouring step was attempted on a block of size < 2."""


class TooLargeT(GallaiKitError):
    """A step size t exceeded floor(block_size / 2)."""


class BudgetExceeded(GallaiKitError):
    """A step required more edges of a colour than its remaining budget."""


class CushionTooSmall(GallaiKitError):
    """drain_with_cushion called without cushion >= min{(k^2-k)/2, k*m}."""


class BatchInfeasible(GallaiKitError):
    """batch_steps precondition (strict capacity inequality) not met."""


class StagedInfeasible(GallaiKitError):
    """A stage of the staged constructor failed its precondition at this scale.

    Carries the stage number and the inequality that failed; callers are
    expected to fall back to the greedy constructor.
    """

    def __init__(self, stage: int, inequality: str):
        self.stage = stage
        self.inequality = inequality
        super().__init__(f"stage {stage} infeasible: {inequality}")


class PreconditionViolation(GallaiKitError):
    """An operation was called outside its stated domain."""


class RangeError(GallaiKitError):
    """A derived parameter fell outside its validity range.

    Carries the name of the failing quantity.
    """

    def __init__(self, quantity: str, value):
        self.quantity = quantity
        self.value = value
        super().__init__(f"{quantity} out of range: {value}")


class NotGallai(GallaiKitError):
    """The colouring contains a rainbow triangle; carries the witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"rainbow triangle at {witness.vertices}")

