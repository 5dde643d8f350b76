"""srlcomb: combine the outputs of several semantic-role-labeling systems.

Pipeline: parse per-system props files, pool the candidate arguments, score
them (summed calibrated probabilities, per-label SVMs, or a Perceptron
trained through inference), and decode one consistent argument structure per
sentence under the structural constraints.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Argument,
    Candidate,
    ConstraintSet,
    RoleLabel,
    Sentence,
    Solution,
    Span,
)
