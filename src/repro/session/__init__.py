"""The session-first public API: a long-lived, incremental :class:`Workspace`.

Every one-shot entry point of the library (``are_equivalent``,
``equivalence_matrix``, ``rewrite``, ``sweep_equivalence``) re-warms the
Γ / signature caches, re-forks its process pool, and re-decides cells
earlier calls already settled — waste the paper's decision procedures do not
require, since a verdict depends only on the query pair.  The workspace
makes the *session* the API unit instead: queries and views are ingested
through one front door (Datalog, SQL, or AST), the settled cells and worker
pool persist across calls, and :meth:`Workspace.equivalences` decides only
the delta cells each time the catalog grows.

The module-level functions remain as thin shims over an ephemeral workspace,
so existing callers keep working unchanged.
"""

from ..obs import CellExplanation
from .workspace import Workspace, WorkspaceStats, explain_cell

__all__ = ["CellExplanation", "Workspace", "WorkspaceStats", "explain_cell"]
