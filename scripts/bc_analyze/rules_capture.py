"""Stored-callback capture rule L3.

L3 escaping-capture: sim::Engine stores every callback handed to
   schedule_at / schedule_after / schedule_periodic, and net::Overlay the
   delivery callback handed to schedule_delivery, and runs it later, from
   the event loop. A lambda that captures anything by reference (`[&]`,
   `[&x]`, `[this, &x]`) keeps a pointer into the scheduling frame, which
   is gone by the time the event fires. Capture by value, or capture
   `this` and re-read member state when the callback runs.
"""

from __future__ import annotations

import re

from bc_analyze.model import Finding
from bc_analyze.source import SourceFile, match_paren

SCHEDULE_RE = re.compile(r"\bschedule_(?:at|after|periodic|delivery)\s*\(")
CAPTURE_LIST_RE = re.compile(r"\[([^\[\]]*)\]\s*(?:\(|\{|mutable\b|->)")


def check_l3(sf: SourceFile) -> list[Finding]:
    out: list[Finding] = []
    code = sf.code
    for m in SCHEDULE_RE.finditer(code):
        open_idx = m.end() - 1
        close = match_paren(code, open_idx)
        if close < 0:
            continue
        for cm in CAPTURE_LIST_RE.finditer(code, open_idx + 1, close):
            captures = [c.strip() for c in cm.group(1).split(",")]
            by_ref = [c for c in captures if c.startswith("&")]
            if not by_ref:
                continue
            out.append(Finding(
                rule="L3", slug="escaping-capture", path=sf.rel,
                line=sf.line_at(cm.start()),
                message=(f"lambda passed to `{m.group(0).rstrip(' (')}`"
                         f" captures `{', '.join(by_ref)}` by reference:"
                         " the callback is stored and runs after this"
                         " frame is gone — capture by value, or capture"
                         " `this` and re-read state when the callback"
                         " runs"),
            ))
    return out
