"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic numerical trouble raises :class:`SolverBreakdown`.
"""


class RelsemiError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(RelsemiError):
    """Malformed argument: wrong shape, non-finite entries, dim mismatch."""


class NotInResolventSet(RelsemiError):
    """Requested point failed the resolvent rank or residual certificate."""

    def __init__(self, lam, reason="", rank=None, residual=None):
        self.lam = lam
        self.rank = rank
        self.residual = residual
        msg = f"lambda={lam!r} is not certified in the resolvent set"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class DivergentSeries(RelsemiError):
    """Series extension requested outside its disc of convergence."""


class NotAPseudoResolvent(RelsemiError):
    """A pair of table entries violated the resolvent identity."""

    def __init__(self, pair, residual):
        self.pair = pair
        self.residual = residual
        super().__init__(
            f"entries at lambda={pair[0]!r}, mu={pair[1]!r} violate the "
            f"resolvent identity (residual {residual:.3e})"
        )


class InconsistentTable(RelsemiError):
    """Reconstructed relation failed to reproduce a table entry."""

    def __init__(self, lam, residual):
        self.lam = lam
        self.residual = residual
        super().__init__(
            f"reconstruction does not reproduce the sample at lambda={lam!r} "
            f"(residual {residual:.3e})"
        )


class NotDissipative(RelsemiError):
    """Dissipativity certificate failed."""


class NotSurjective(RelsemiError):
    """Range is a proper subspace where the full space was required."""


class NotMDissipative(RelsemiError):
    """m-dissipativity evidence could not be produced."""


class DecompositionFailure(RelsemiError):
    """State space did not split into domain and multivalued parts."""


class OutsideSector(RelsemiError):
    """Evaluation point lies outside the certified sector of analyticity."""


class NotCauchy(RelsemiError):
    """Trailing window of a sequence failed the Cauchy certificate."""


class ResolventNotConvergent(RelsemiError):
    """Resolvent samples of a sequence failed the Cauchy certificate."""


class InconsistentEquivalence(RelsemiError):
    """Convergence criteria that are provably equivalent disagreed.

    Raising this indicates an implementation bug somewhere upstream; test
    harnesses treat it as a hard failure.
    """


class SectorHypothesisFailed(RelsemiError):
    """A sequence member failed the uniform sector bound."""

    def __init__(self, index, detail=""):
        self.index = index
        super().__init__(f"family member {index} failed the sector bound" +
                         (f": {detail}" if detail else ""))


class MaskTouchesBoundary(RelsemiError):
    """Domain mask reaches the outermost lattice ring of the box."""


class VanishingMultiplier(RelsemiError):
    """Multiplier coefficient dropped below its positive lower bound."""

    def __init__(self, node=None, value=None):
        self.node = node
        self.value = value
        msg = "multiplier vanishes"
        if node is not None:
            msg += f" at node {node} (|m| = {abs(value):.3e})" if value is not None \
                else f" at node {node}"
        super().__init__(msg)


class ContractFailed(RelsemiError):
    """A documented numerical contract was violated at runtime."""

    def __init__(self, message="contract violated", lam=None, row=None):
        self.lam = lam
        self.row = row
        if lam is not None:
            message += f" (lambda={lam!r}" + \
                (f", row {row})" if row is not None else ")")
        super().__init__(message)


class SolverBreakdown(RelsemiError):
    """An underlying linear-algebra kernel failed to converge."""


class ConfigError(RelsemiError):
    """Bad experiment configuration; carries a field-level diagnostic."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
