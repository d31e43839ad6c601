"""The repro-lint rule registry.

``ALL_RULES`` is the ordered list of rule classes a default run
instantiates.  Adding a rule is three steps (see ``docs/development.md``):
implement it in a module here, import it below, append it to
``ALL_RULES``, and give it good/bad fixtures in
``tests/fixtures/analysis/``.

Per-file rules (``check_file``) see one parsed file.  Anything that
reads another file, the project model or the repository belongs in a
whole-program rule (``check_project``).
"""

from .atomicity import ExceptionAtomicityRule
from .determinism import (
    IdHashKeyRule,
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from .drift import MetricsDocsRule
from .snapshots import SnapshotCoverageRule
from .truthiness import OptionalTruthinessRule

__all__ = ["ALL_RULES"]

ALL_RULES = [
    SetIterationRule,
    IdHashKeyRule,
    UnseededRandomRule,
    WallClockRule,
    SnapshotCoverageRule,
    OptionalTruthinessRule,
    ExceptionAtomicityRule,
    MetricsDocsRule,
]
