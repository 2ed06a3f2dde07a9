"""Exception types shared across the package."""

from __future__ import annotations


# Why a constraint system with no witness credential is infeasible.
NO_LEGAL_ROW = "no row avoids every hard constraint"


class AnonArrayError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(AnonArrayError, ValueError):
    """An argument is out of range or inconsistent with the schema."""


class ParseError(AnonArrayError):
    """A document failed to parse; carries location when known."""

    def __init__(self, message, filename=None, line=None, column=None):
        self.filename = filename
        self.line = line
        self.column = column
        loc = []
        if filename is not None:
            loc.append(str(filename))
        if line is not None:
            loc.append(f"line {line}")
        if column is not None:
            loc.append(f"column {column}")
        prefix = ", ".join(loc)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.message = message


class InfeasibleError(AnonArrayError):
    """The constraint system admits no solution; carries the report.

    The message names every witness credential, rendered with the schema,
    and gives each distinct reason once after the credentials it covers.
    With no witness, the fault is that no row avoids every hard constraint.
    """

    def __init__(self, report, schema):
        self.report = report
        by_reason = {}
        for cred, reason in report.witnesses:
            by_reason.setdefault(reason, []).append(cred.render(schema))
        found = "; ".join(
            f"{', '.join(creds)}: {reason}" for reason, creds in by_reason.items()
        )
        super().__init__(
            "constraint system is infeasible: "
            + (found or NO_LEGAL_ROW)
        )


class BudgetExceededError(AnonArrayError):
    """Row budget ran out before the target guarantee was met."""

    def __init__(self, partial_rows, remaining, message=None):
        self.partial_rows = partial_rows
        self.remaining = remaining
        super().__init__(
            message
            or f"row budget exhausted with {len(remaining)} credentials still deficient"
        )


class SearchBudgetError(AnonArrayError):
    """Row completion gave up before deciding whether a legal row exists."""
