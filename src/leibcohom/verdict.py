"""Verdicts for axiom/identity checks: violations are data, not exceptions."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Verdict:
    ok: bool
    violations: list = field(default_factory=list)

    @classmethod
    def passed(cls):
        return cls(True, [])

    @classmethod
    def failed(cls, violations):
        return cls(False, list(violations))

    def __bool__(self):
        return self.ok


class VerdictError(AssertionError):
    """A guard that failed; ``verdict`` holds its violations as witnesses."""

    def __init__(self, message, verdict):
        super().__init__(message)
        self.verdict = verdict
