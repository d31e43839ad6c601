"""Snapshot completeness: every ``__init__`` attribute must persist & restore.

PR 4's exact-resume contract ("restore(checkpoint(E)) + remaining stream ==
uninterrupted run, byte for byte") only holds while every stateful class's
``state_dict`` captures *everything* its ``__init__`` establishes, and its
loader restores it.  The failure mode is silent: a new field added to a
buffer or matcher simply resets to its constructor default after restore,
and the divergence surfaces many batches later as a conformance mismatch
the crash suite has to shrink down.  This rule fails the *commit* instead.

For every class defining ``state_dict`` plus a loader (``from_state`` /
``load_state``), each ``self.x = ...`` assigned in that class's own
``__init__`` must be *covered* by

* a key captured somewhere in the ``state_dict`` chain (the class's own
  method plus project-resolvable base classes'), and
* a key read somewhere in the loader chain (``from_state`` /
  ``load_state``).

Key matching strips the attribute's leading underscores and accepts an
underscore-boundary prefix either way, so ``self._pending`` is covered by
``"pending"`` and ``self._rng`` by ``"rng_state"``.

Two structural exemptions keep the rule usable against this codebase's
"rebuild, don't store" codecs (an SJ-tree's shape is rebuilt from the
decomposition; only its match collections are snapshotted):

* an attribute whose ``__init__`` assignment references a constructor
  parameter is *construction input* -- the owner re-supplies it when it
  rebuilds the object before calling the loader;
* a class whose ``state_dict`` chain exposes no string keys at all (a
  list codec like ``LabelDistribution``) is opaque to the heuristic and
  skipped entirely.

Everything else that is deliberately derived (recomputed from other
persisted fields on load) carries a ``# repro-lint:
ignore[snapshot-coverage]`` on its assignment line -- and because unused
suppressions are errors, the ignore dies with the attribute.

Since the base-class chain can live in *other* files, this runs as a
whole-program rule over the project model (``ClassSummary.init_attrs``,
``captured_keys``/``restored_keys`` per chain link).
"""

from __future__ import annotations

from typing import Iterable, List

from ..core import Finding, Project, Rule
from ..model import LOADER_NAMES, covers_key

__all__ = ["SnapshotCoverageRule"]


class SnapshotCoverageRule(Rule):
    """Cross-check ``__init__`` attributes against capture and restore keys."""

    id = "snapshot-coverage"
    description = (
        "an attribute established in __init__ but absent from state_dict / "
        "the loader silently resets on restore, breaking the exact-resume "
        "contract; persist it or mark it derived with a suppression"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        model = project.model
        for summary in model.summaries:
            for class_summary in summary.classes.values():
                if not (class_summary.has_state_dict and class_summary.has_loader):
                    continue
                captured, restored = model.chain_keys(class_summary.name)
                if not captured:
                    continue  # list/opaque codec: no keys for the heuristic
                for attr, line in class_summary.init_attrs:
                    if not covers_key(attr, sorted(captured)):
                        findings.append(
                            Finding(
                                self.id,
                                summary.display_path,
                                line,
                                f"{class_summary.name}.{attr} is assigned in "
                                f"__init__ but no state_dict key captures it "
                                f"(restore would reset it)",
                            )
                        )
                    elif restored and not covers_key(attr, sorted(restored)):
                        findings.append(
                            Finding(
                                self.id,
                                summary.display_path,
                                line,
                                f"{class_summary.name}.{attr} is captured by "
                                f"state_dict but no loader "
                                f"({'/'.join(LOADER_NAMES)}) reads it back",
                            )
                        )
        return findings
