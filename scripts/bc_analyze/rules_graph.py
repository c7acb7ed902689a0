"""Graph-core encapsulation rule G1.

G1 dense-index-leak: the graph module interns PeerIds to dense NodeIndex
   slots for vector-addressed adjacency. A slot is one graph's first-touch
   order, so the same peer has different slots in different graphs (every
   node's subjective view interns peers in the order it heard of them), and
   any NodeIndex that escapes src/graph/ (into gossip, reputation
   bookkeeping, serialized state, ...) names a different peer as soon as it
   meets another graph. Consumers must stay on the PeerId API of FlowGraph.
"""

from __future__ import annotations

import re

from bc_analyze.model import Finding
from bc_analyze.source import SourceFile

DENSE_INDEX_RE = re.compile(
    r"\b(?:bc::)?(?:graph::)?(PeerIndex|NodeIndex|kNoNode)\b"
)
# Scanned against raw lines: include paths are string literals, which the
# code scrubber blanks.
PEER_INDEX_INCLUDE_RE = re.compile(
    r'#\s*include\s*["<]graph/peer_index\.hpp[">]'
)


def check_g1(sf: SourceFile) -> list[Finding]:
    out: list[Finding] = []
    for lineno, raw in enumerate(sf.raw_lines, start=1):
        if PEER_INDEX_INCLUDE_RE.search(raw):
            out.append(Finding(
                rule="G1", slug="dense-index-leak", path=sf.rel, line=lineno,
                message=("include of graph/peer_index.hpp outside"
                         " src/graph/: a dense slot is one graph's"
                         " first-touch order, a private detail of the graph"
                         " core; consume the PeerId API of FlowGraph"
                         " instead"),
            ))
    for lineno, code in enumerate(sf.code_lines, start=1):
        for m in DENSE_INDEX_RE.finditer(code):
            out.append(Finding(
                rule="G1", slug="dense-index-leak", path=sf.rel, line=lineno,
                message=(f"dense graph internal `{m.group(1)}` outside"
                         " src/graph/: a NodeIndex slot is one graph's"
                         " first-touch order, so the same peer has different"
                         " slots in different graphs; use the PeerId API of"
                         " FlowGraph"),
            ))
    return out
