"""Structured errors for the serving layer.

Every error a query can provoke maps to one HTTP status and renders as
a structured JSON payload — ``{"error": <code>, "message": ...,
"choices": [...]}`` — never a traceback.  ``choices`` carries the valid
values when the request named something the dataset or registry does
not have (an unknown country lists the known countries, an unknown
task lists the registry), so a 404 is directly actionable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.errors import ReproError


class ServiceError(ReproError):
    """Base class: an unexpected serving failure (HTTP 500)."""

    status = 500
    code = "internal_error"

    def __init__(
        self, message: str, *, choices: Iterable[object] | None = None
    ) -> None:
        super().__init__(message)
        self.choices: tuple[str, ...] | None = (
            tuple(str(c) for c in choices) if choices is not None else None
        )

    def payload(self) -> dict[str, object]:
        """The JSON body served for this error."""
        out: dict[str, object] = {"error": self.code, "message": str(self)}
        if self.choices is not None:
            out["choices"] = list(self.choices)
        return out


class BadRequest(ServiceError):
    """A malformed parameter (unparseable month, top < 1, ...)."""

    status = 400
    code = "bad_request"


class NotFound(ServiceError):
    """The named resource does not exist in this dataset or registry."""

    status = 404
    code = "not_found"


class MethodNotAllowed(ServiceError):
    """A write method: the serving API is read-only."""

    status = 405
    code = "method_not_allowed"


class Unavailable(ServiceError):
    """The query is well-formed but this dataset cannot answer it.

    Mirrors :class:`~repro.core.errors.TaskUnavailable`: e.g. the
    platform-comparison analysis against a single-platform export.
    """

    status = 422
    code = "unavailable"


def not_found(kind: str, got: object, choices: Sequence[object]) -> NotFound:
    """A uniform unknown-<kind> 404 carrying the valid choices."""
    return NotFound(f"unknown {kind} {str(got)!r}", choices=choices)
