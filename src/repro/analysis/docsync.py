"""Shared doc-parsing helpers for repro-lint and ``scripts/check_docs.py``.

Both the static metrics-docs rule (:mod:`repro.analysis.rules.drift`) and
the runtime docs checker parse the same Markdown structures -- relative
links, GitHub heading anchors, backticked ``repro.*`` symbols and the
backticked first column of config tables.  The regexes and slug logic
live here once so the two checkers cannot themselves drift apart.
"""

from __future__ import annotations

import re
from typing import Set

__all__ = [
    "HEADING_PATTERN",
    "LINK_PATTERN",
    "SYMBOL_PATTERN",
    "TABLE_FIELD_PATTERN",
    "backticked_terms",
    "documented_fields",
    "github_anchor",
]

#: ``[text](target)`` Markdown links (the capture is the target).
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Backticked dotted names rooted at the package: ```repro.core.EngineConfig```.
SYMBOL_PATTERN = re.compile(r"`(repro(?:\.\w+)+)`")
#: ATX headings, any level.
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: Backticked first-column entries of a Markdown table row.
TABLE_FIELD_PATTERN = re.compile(r"^\|\s*`(\w+)`\s*\|", re.MULTILINE)
#: Any backticked code span (used for metrics-key coverage).
_BACKTICK_SPAN_PATTERN = re.compile(r"`([^`]+)`")
_WORD_PATTERN = re.compile(r"\w+")


def github_anchor(heading: str) -> str:
    """Approximate GitHub's heading -> anchor slug."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def documented_fields(text: str, section_heading: str) -> Set[str]:
    """Backticked first-column entries of the table under ``section_heading``.

    The section runs from the heading to the next heading of level <= 3
    (or end of text); a missing heading yields the empty set.
    """
    start = text.find(section_heading)
    if start < 0:
        return set()
    rest = text[start + len(section_heading):]
    next_heading = re.search(r"^#{1,3}\s", rest, re.MULTILINE)
    block = rest[: next_heading.start()] if next_heading else rest
    return set(TABLE_FIELD_PATTERN.findall(block))


def backticked_terms(text: str) -> Set[str]:
    """Every word token inside a backticked code span of ``text``.

    ``engine.metrics()["reorder"]`` documents ``reorder`` just as well as
    a bare ``` `reorder` ``` does, so metrics-key coverage accepts
    mentions inside longer code spans.
    """
    # drop fenced code blocks first: a ``` fence would otherwise mispair
    # with inline backticks and shift every span after it
    text = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    terms: Set[str] = set()
    for span in _BACKTICK_SPAN_PATTERN.findall(text):
        terms.update(_WORD_PATTERN.findall(span))
    return terms
