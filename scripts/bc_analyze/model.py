"""Finding and suppression data types shared by the frontends and rules."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file and 1-based line."""

    rule: str  # "D1", "H3", ..., "SUP"
    slug: str  # human-readable rule name, e.g. "unordered-iteration"
    path: str  # repo-relative path
    line: int
    message: str

    def human(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule} {self.slug}] {self.message}"

    def github(self) -> str:
        # GitHub annotation commands must stay on one line.
        msg = self.message.replace("\n", " ")
        return (
            f"::error file={self.path},line={self.line},"
            f"title=bc-analyze {self.rule} {self.slug}::{msg}"
        )

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule, self.message)


@dataclass
class Suppression:
    """A parsed `// bc-analyze: allow(<rules>) -- <reason>` marker."""

    path: str
    marker_line: int  # line the comment sits on
    target_line: int  # line the suppression applies to
    rules: tuple[str, ...]
    reason: str
    used: bool = field(default=False)

    def covers(self, rule: str, line: int) -> bool:
        return line == self.target_line and rule in self.rules
