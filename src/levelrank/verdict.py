"""The one result record of every check.

Library checks (exhaustion, skew Cauchy, Verlinde, the degree-zero
equivalence, the trace form, the twist pairing) and every case of a
``levelrank verify`` suite return a ``Verdict``: whether the identity holds,
how many identities were checked, and the first counterexample found. A
suite that raises instead gives one ERROR record carrying the exception: a
crash is never read as a counterexample.
"""

from __future__ import annotations

from .record import ValueRecord


class Verdict(ValueRecord):
    """Outcome of one case of the ``suite`` named by ``verify.SUITES``;
    truthy when the identity holds. ``counterexample`` is the first failure
    (None when it holds) and ``detail`` a short note for the printed line.
    ``error`` is the exception of a suite that raised (it never holds)."""

    def __init__(self, suite: str, name: str, holds: bool, checked: int = 1,
                 counterexample: object = None, detail: str = "",
                 error: Exception | None = None):
        vars(self).update(suite=suite, name=name, holds=holds, checked=checked,
                          counterexample=counterexample, detail=detail, error=error)

    def __bool__(self) -> bool:
        return self.holds

    def line(self) -> str:
        mark = "ERROR" if self.error is not None else "PASS" if self.holds else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.suite}: {self.name}{extra}"

    def to_json(self) -> dict:
        """Field by field; the counterexample as its repr, since it may hold
        weights or cyclotomic numbers, and the error as "Type: message"."""
        cx, err = self.counterexample, self.error
        return {
            "suite": self.suite,
            "name": self.name,
            "holds": self.holds,
            "checked": self.checked,
            "detail": self.detail,
            "counterexample": None if cx is None else repr(cx),
            "error": None if err is None else f"{type(err).__name__}: {err}",
        }
