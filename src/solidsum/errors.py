"""Exception types raised across the package."""


class SolidSumError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SolidSumError):
    pass


class DegenerateInput(SolidSumError):
    pass


class BadIndex(SolidSumError):
    pass


class NotPointed(SolidSumError):
    pass


class UnsupportedDimension(SolidSumError):
    pass


class BadEpsilon(SolidSumError):
    pass


class DegenerateCone(SolidSumError):
    pass


class ScheduleTooShort(SolidSumError):
    pass


class QuadratureUnderResolved(SolidSumError):
    pass


class PoleHit(SolidSumError):
    def __init__(self, message, generator_index=None, lattice_point=None):
        super().__init__(message)
        self.generator_index = generator_index
        self.lattice_point = lattice_point


class ConvergenceDomain(SolidSumError):
    pass


class NonConvergent(SolidSumError):
    pass


class ImaginaryResidue(SolidSumError):
    pass


class UnsupportedCombination(SolidSumError):
    pass
