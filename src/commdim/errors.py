"""Exception types shared across the package."""


class EnumerationTooLarge(RuntimeError):
    """The isotropic-subspace search ran out of its node budget."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class CertificationFailed(RuntimeError):
    """Every sampled form tuple admitted a common isotropic subspace."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotASubalgebra(ValueError):
    """A subspace handed to an abelian check is not closed under the product.

    ``pair`` holds the indices (i, j) of the first basis pair whose product
    falls outside the subspace.
    """

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair
