"""Id encoding of relations: the order-isomorphic int64 image of their rows.

A value's id is its rank in the sorted carrier, so id order equals value
order and the id image of a relation depends only on the database.  A
:class:`~repro.datalog.database.Database` whose largest relation has at least
:data:`VECTOR_THRESHOLD` rows, built while NumPy is on, encodes every relation
once, when it is built; the columnar store of :mod:`repro.engine.columnar`
reads those matrices and interns through :func:`intern_matrix` only the
relations of databases that carry no encoding (symbolic databases, and
databases below the threshold or built with NumPy off).

This module sits below the engine so the database layer can encode without
importing it.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Callable, Collection

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None


#: Minimum relation size for the vectorized join path, and for a database to
#: encode its relations when it is built.
VECTOR_THRESHOLD = 512


def numpy_module():  # noqa: ANN201 - the numpy module or None
    """The NumPy module the stores and encodings use, or ``None`` (not
    importable, or disabled via ``REPRO_NO_NUMPY``).  Read per store build and
    per database build, so tests can toggle the fallback without reloading
    modules."""
    if os.environ.get("REPRO_NO_NUMPY", "").strip().lower() in ("1", "true", "yes"):
        return None
    return _numpy


def intern_matrix(np, rows: Collection[tuple], arity: int, id_of: Callable):  # noqa: ANN001, ANN201
    """The ``(len(rows), arity)`` int64 matrix of the rows' ids, in the rows'
    iteration order: every value goes through ``id_of`` once, with no tuple
    rows in between.  Every row must have ``arity`` columns."""
    return np.fromiter(
        map(id_of, chain.from_iterable(rows)), dtype=np.int64, count=len(rows) * arity
    ).reshape(len(rows), arity)


def rows_of_arity(rows: Collection[tuple], arities: Collection[int], arity: int) -> Collection[tuple]:
    """The rows with ``arity`` columns, given the set of lengths the rows
    have (the rows themselves when that set is ``{arity}``)."""
    if len(arities) == 1 and arity in arities:
        return rows
    return [row for row in rows if len(row) == arity]
