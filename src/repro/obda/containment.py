"""Source-level containment checks for mapping optimization.

T-mapping compilation saturates every entity with the mappings of all its
subsumees, which produces heavily redundant assertion sets: the mapping of
``WildcatWellbore`` (``... WHERE wlbpurpose = 'WILDCAT'``) is subsumed by
the unfiltered mapping of ``Wellbore`` over the same sheet.  Removing such
redundancy at load time is the optimization the paper credits for keeping
unfolded SQL small ("the embedding of the inferences into the mappings").

The check compares the profiles of two
:class:`~repro.obda.mapping.MappingSource` objects; it never looks at SQL
text.  It is *sound but incomplete*: a source is declared contained only
when the profiles prove it --

* two sources with the same canonical key are equivalent;
* a source is contained if each of its branches is contained in some
  container branch (wrappers were already removed when profiling);
* a branch is contained in another when both scan the same base table
  with no modifier other than WHERE, define every column the term maps
  consume identically -- a bare column by its base column, any other
  expression by its whole canonical text -- and the container's WHERE
  conjuncts are a subset of the contained one's.

Joins, nested unions and unparseable sources have no base table in their
profile and are never contained in, nor contain, anything but an
identical source.
"""

from __future__ import annotations

from typing import Sequence

from .mapping import MappingSource, SourceBranch

_FILTER_ONLY = frozenset({"WHERE"})


def branch_contains(
    container: SourceBranch,
    contained: SourceBranch,
    needed_columns: Sequence[str],
) -> bool:
    """Does *container* return a superset of *contained* (projected on
    the needed columns)?"""
    for branch in (container, contained):
        if branch.table is None or not branch.modifiers <= _FILTER_ONLY:
            return False
    if container.table != contained.table:
        return False
    for column in needed_columns:
        column = column.lower()
        if _definition(container, column) != _definition(contained, column):
            return False
    return container.conjuncts <= contained.conjuncts


def _definition(branch: SourceBranch, column: str) -> str:
    # a column the branch does not list is star-projected (or missing,
    # which breaks the term map either way): take it as the bare column.
    # Canonical expression texts never collide with column names: a bare
    # identifier would have been profiled as a column reference.
    return branch.columns.get(column) or branch.expressions.get(column, column)


def source_contains(
    container: MappingSource,
    contained: MappingSource,
    needed_columns: Sequence[str],
) -> bool:
    """True when every row the contained source yields (projected on the
    needed columns) is also produced by the container source."""
    if container.key == contained.key:
        return True
    return all(
        any(
            branch_contains(container_branch, contained_branch, needed_columns)
            for container_branch in container.branches
        )
        for contained_branch in contained.branches
    )
