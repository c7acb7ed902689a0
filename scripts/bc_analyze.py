#!/usr/bin/env python3
"""bc-analyze CLI: the BarterCast repository linter.

Usage:
  scripts/bc_analyze.py [paths...] [--github] [--list-rules] [--version]

Exit status: 0 clean, 1 findings, 2 usage/infrastructure error.
See scripts/bc_analyze/__init__.py and DESIGN.md section 9 for the rule
catalogue and suppression policy.
"""

import sys
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = SCRIPTS_DIR.parent
sys.path.insert(0, str(SCRIPTS_DIR))

from bc_analyze.engine import run  # noqa: E402

if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], REPO_ROOT))
