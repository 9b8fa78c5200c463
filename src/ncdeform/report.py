"""Pass/fail reports produced by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


def clip_note(text: str) -> str:
    """A counterexample note: text, cut to 120 characters ending in "..."
    when it is longer."""
    return text if len(text) <= 120 else text[:117] + "..."


@dataclass
class Check:
    name: str
    subject: str
    passed: bool
    counterexample: str | None = None
    diagnostic: bool = False    # informational checks never gate the report


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, subject: str, passed: bool,
            counterexample: str | None = None, diagnostic: bool = False) -> None:
        self.checks.append(Check(name, subject, bool(passed),
                                 counterexample, diagnostic))

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        """Every gated check passed, and at least one ran."""
        gated = [c.passed for c in self.checks if not c.diagnostic]
        return bool(gated) and all(gated)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed and not c.diagnostic]

    def to_json(self) -> dict:
        checks = []
        for c in self.checks:
            item = {"name": c.name, "subject": c.subject, "pass": c.passed}
            if c.counterexample is not None:
                item["counterexample"] = c.counterexample
            if c.diagnostic:
                item["diagnostic"] = True
            checks.append(item)
        return {"checks": checks, "pass": self.passed}

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            tag = "DIAG" if c.diagnostic else ("PASS" if c.passed else "FAIL")
            line = f"{tag} {c.name}: {c.subject}"
            if c.diagnostic:
                line += " [agrees]" if c.passed else " [differs]"
            if c.counterexample and (not c.passed):
                line += f" | {c.counterexample}"
            lines.append(line)
        gated = [c for c in self.checks if not c.diagnostic]
        failed = len([c for c in gated if not c.passed])
        if failed:
            lines.append(f"FAILURES: {failed}/{len(gated)} checks")
        elif not gated:
            lines.append("FAILED: no check ran")
        else:
            lines.append(f"ALL PASS ({len(gated)} checks)")
        return "\n".join(lines)
