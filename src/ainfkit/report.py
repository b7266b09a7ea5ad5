"""Structured verdicts for identity checks.

Every checker returns a CheckReport rather than a bare bool so that callers
(and the command line driver) can surface the first failing input as a
witness.  Verdicts are always relative to the caps the check ran with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"
UNSUPPORTED = "UNSUPPORTED"


@dataclass
class CheckReport:
    name: str                      # which checker ran
    statement: str                 # human-readable identity that was tested
    cap: Any                       # weight/arity caps the verdict is relative to
    verdict: str = PASS
    witness: Optional[Any] = None  # (input, expected, got) for the first failure
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def fail(self, witness: Any) -> "CheckReport":
        if self.verdict == PASS:
            self.verdict = FAIL
            self.witness = witness
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "cap": self.cap,
            "verdict": self.verdict,
            "witness": repr(self.witness) if self.witness is not None else None,
            "details": {k: repr(v) for k, v in sorted(self.details.items())},
        }

    def __str__(self) -> str:
        base = "[%s] %s (%s; cap=%r)" % (self.verdict, self.name,
                                         self.statement, self.cap)
        if self.witness is not None:
            base += "\n  witness: %r" % (self.witness,)
        return base

