"""Exception types shared across the package."""


class QviterbiError(Exception):
    """Base class for all package-specific errors."""


class RankError(QviterbiError):
    """Generator matrix is rank-deficient over GF(2)."""


class NotLinearError(QviterbiError):
    """A word set is not a linear code (not XOR-closed, wrong size, or missing zero)."""


class LengthError(QviterbiError):
    """Bit-vector lengths do not match the expected size."""


class EmptyMixerError(QviterbiError):
    """The code has no nonzero codewords, so no mixer terms exist."""


class NotDiagonalError(QviterbiError):
    """Operation requires a diagonal (all-Z) Hamiltonian."""


class StatePrepError(QviterbiError):
    """Generator matrix is not in a form usable for state preparation."""
