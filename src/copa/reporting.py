"""Verification report records shared by the check operations and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

# A counterexample label, or a function that builds it; a function is called
# only when its check fails and the counterexample is recorded.
Label = Union[str, Callable[[], str]]


def _text(label: Label) -> str:
    return label() if callable(label) else label


@dataclass
class VerificationReport:
    suite: str
    ranges: str
    attempted: int = 0
    passed: int = 0
    counterexample: Optional[str] = None
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.counterexample is None and self.passed == self.attempted

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        out = (
            f"suite={self.suite} ranges=[{self.ranges}] "
            f"attempted={self.attempted} passed={self.passed} status={status}"
        )
        if self.counterexample is not None:
            out += f" counterexample={self.counterexample!r}"
        return out


class Checker:
    """Accumulates check outcomes; keeps only the first counterexample."""

    def __init__(self, suite: str, ranges: str):
        self.report = VerificationReport(suite=suite, ranges=ranges)
        self._t0 = time.perf_counter()

    def equal(self, lhs, rhs, label: Label) -> bool:
        self.report.attempted += 1
        if lhs == rhs:
            self.report.passed += 1
            return True
        if self.report.counterexample is None:
            self.report.counterexample = f"{_text(label)}: {lhs} != {rhs}"
        return False

    def check(self, condition: bool, label: Label) -> bool:
        self.report.attempted += 1
        if condition:
            self.report.passed += 1
            return True
        if self.report.counterexample is None:
            self.report.counterexample = _text(label)
        return False

    def done(self) -> VerificationReport:
        self.report.wall_time = time.perf_counter() - self._t0
        return self.report
