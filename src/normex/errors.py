"""Exception hierarchy shared by all normex modules."""


class NormexError(Exception):
    """Base class for every error raised by this package."""


class InputError(NormexError):
    """Malformed or dimensionally incompatible input data."""


class MembershipError(InputError):
    """A group element was required to lie in the semigroup but does not."""


class UnsupportedStructureError(NormexError):
    """Operation requires structure (lattice order, finite generation) the
    descriptor does not have."""


class NotHermitianError(NormexError):
    """A matrix expected to be Hermitian deviates beyond tolerance.

    Kept distinct from a negative PSD verdict so reports can separate
    modeling bugs from genuine condition failures.
    """

    def __init__(self, defect: float, tolerance: float):
        self.defect = defect
        self.tolerance = tolerance
        super().__init__(
            f"hermitian defect {defect:.3e} exceeds tolerance {tolerance:.3e}"
        )


class NotPsdError(NormexError):
    """A kernel required to be positive semidefinite is not; carries the margin."""

    def __init__(self, margin: float, tolerance: float):
        self.margin = margin
        self.tolerance = tolerance
        super().__init__(
            f"matrix is not PSD: min eigenvalue {margin:.3e} < -{tolerance:.3e}"
        )


class CapExceededError(NormexError):
    """A combinatorial sweep would exceed its configured budget."""

    def __init__(self, requested: int, cap: int, budget: int):
        self.requested = requested
        self.cap = cap
        self.budget = budget
        super().__init__(
            f"subset enumeration over {requested} letters exceeds cap {cap} "
            f"(would need {budget} subset evaluations)"
        )


class _TupleCapExceededError(CapExceededError):
    """A degree sweep would visit more tuples than its budget allows."""

    def __init__(self, tuples: int, cap: int):
        super().__init__(tuples, cap, tuples)
        self.args = (f"degree sweep over {tuples} tuples exceeds cap {cap} "
                     f"tuples",)
