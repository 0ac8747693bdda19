"""Exception types shared across the package."""


class StonekitError(Exception):
    """Base class for every error raised by this package.

    ``witness`` carries what refutes the property, when the error has
    one; each subclass documents its shape.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAPoset(StonekitError):
    """The relation is not reflexive, antisymmetric and transitive."""


class NotALattice(StonekitError):
    """Some pair of elements has no greatest lower or least upper bound.

    ``witness`` is ``("meet" | "join", x, y)`` for the offending pair, or
    None when the carrier itself is unusable (for example, empty).
    """


class LatticeTooLarge(StonekitError):
    """Carrier exceeds the soft element cap (STONE_MAX_LATTICE)."""


class NotAFrame(StonekitError):
    """Distributivity fails; ``witness`` is a failing triple (x, y, z)."""


class ShapeMismatch(StonekitError):
    """The two maps do not run between the same pair of lattices."""


class NotMonotone(StonekitError):
    """``witness`` is a pair (x, y) with x <= y but f(x) !<= f(y)."""


class AdjunctionFailure(StonekitError):
    """The adjunction law fails; ``witness`` is the offending pair (x, y),
    or ``("lower" | "upper", element)`` when a relation's image or
    interior of that element lands on no element (from_relation)."""


class NotLocaleMorphism(StonekitError):
    """The map does not preserve joins and finite meets as required."""


class InvalidTopology(StonekitError):
    """An opens family fails the finite T0 topology laws."""


class NotContinuous(StonekitError):
    """Some open has a non-open preimage; ``witness`` is that open's mask."""


class ConditionViolated(StonekitError):
    """A named precondition failed; ``condition`` holds its tag and
    ``witness`` the pair that breaks it.

    For C1 the witness is the first pair (I, J), I restricted, with
    meet(I, r(i(J))) != r(i(meet(I, J))).
    """

    def __init__(self, message, condition=None, witness=None):
        super().__init__(message, witness)
        self.condition = condition


class JRViolated(ConditionViolated):
    """Restricted set not closed under joins; the construction refuses.

    ``witness`` is the first pair of restricted elements whose join
    escapes, or ``()`` when the bottom (the empty join) is not restricted.
    """


class MIViolated(ConditionViolated):
    """Induced set not closed under meets; the construction refuses.

    ``witness`` is the first pair of induced elements whose meet
    escapes, or ``()`` when the top (the empty meet) is not induced.
    """


class ClosureTooLarge(StonekitError):
    """Generated group closure exceeds the hard cap."""


class JNotAdmissible(StonekitError):
    """The chosen vertex set is not usable for pair construction."""


class DocumentError(StonekitError):
    """An instance document failed validation; message is location-anchored."""


class SweepFailed(StonekitError):
    """A conformance sweep found violations; ``report`` carries them."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
