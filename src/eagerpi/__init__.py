"""Workbench for a session-typed pi calculus with eagerly-committing
non-deterministic choice, a resource lambda calculus with intersection
types, the translation between them, and the behavioral toolkit used to
check the correspondence between the two."""

__version__ = "0.1.0"

from .eager import step_all, trace  # noqa: F401
from .equivalence import (bisim_eager, nd_precongruence,  # noqa: F401
                          prefix_compatible, ready_prefixes, succeeds_pi)
from .lamtypes import check_wf, check_wt, embraces  # noqa: F401
from .process import (canonicalize, free_name_split,  # noqa: F401
                      struct_congruent, substitute)
from .sessiontypes import dual  # noqa: F401
from .translate import check_translation_preservation, translate  # noqa: F401
from .typecheck import probe_deadlock_freedom, typecheck  # noqa: F401
