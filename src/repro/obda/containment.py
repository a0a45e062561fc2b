"""Assertion-level containment checks for mapping optimization.

T-mapping compilation saturates every entity with the mappings of all its
subsumees, which produces heavily redundant assertion sets: the mapping of
``WildcatWellbore`` (``... WHERE wlbpurpose = 'WILDCAT'``) is subsumed by
the unfiltered mapping of ``Wellbore`` over the same sheet, and the
generic ``npdv:name`` over ``SELECT id, name AS name_col FROM t`` repeats
the ``npdv:companyName``-style triples of ``SELECT id, name FROM t``.
Removing such redundancy at load time is the optimization the paper
credits for keeping unfolded SQL small ("the embedding of the inferences
into the mappings").

The check compares the profiles of the assertions'
:class:`~repro.obda.mapping.MappingSource` objects, whose branches are
already stripped of transparent ``SELECT * FROM (X) alias`` wrappers; it
never looks at SQL text.  It is *sound but incomplete*: assertion B is
covered by assertion A of the same entity only when the profiles prove
that every triple B yields A yields too --

* two assertions with the same canonical source key and the same term
  maps are equivalent;
* otherwise every branch of B needs a branch of A that scans the same
  base table, with no modifier but WHERE on either side, whose WHERE
  conjuncts are a subset of B's, and which *resolves* the subject and
  object to the same shape as B's branch does: the template fragments or
  literal datatype, with each column replaced by its branch definition
  (a bare column by its base column, any other expression by its whole
  canonical text).  So ``name_col`` over ``cmpshortname AS name_col`` and
  ``cmpshortname`` over ``cmpshortname`` are one shape.

Joins, nested unions and unparseable branches have no base table in
their profile and are never contained in, nor contain, anything but an
identical assertion.  The branches of every assertion are indexed by
``(table, resolved subject, resolved object)``, so one entity costs one
pass over its branches rather than a comparison of every pair.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .mapping import (
    IriTermMap,
    LiteralTermMap,
    MappingAssertion,
    SourceBranch,
    TermMap,
    assertion_body_key,
)

_FILTER_ONLY = frozenset({"WHERE"})

#: (table, resolved subject, resolved object) of one branch
_Shape = Tuple[str, tuple, tuple]


def covering(assertions: Sequence[MappingAssertion]) -> List[FrozenSet[int]]:
    """For the assertions of one entity, the positions of the *other*
    assertions that cover each one (every triple it yields, they yield)."""
    shapes = [_branch_shapes(assertion) for assertion in assertions]
    index: Dict[_Shape, List[Tuple[int, FrozenSet[str]]]] = {}
    for position, branches in enumerate(shapes):
        for entry in branches:
            if entry is not None:
                index.setdefault(entry[0], []).append((position, entry[1]))
    twins: Dict[Tuple[str, str, str, str], List[int]] = {}
    bodies = [assertion_body_key(assertion) for assertion in assertions]
    for position, body in enumerate(bodies):
        twins.setdefault(body, []).append(position)
    covers: List[FrozenSet[int]] = []
    for position, branches in enumerate(shapes):
        found: Set[int] = set(twins[bodies[position]])
        if None not in branches:
            # the assertions with a covering branch for every branch
            found |= set.intersection(
                *(
                    {other for other, theirs in index[shape] if theirs <= conjuncts}
                    for shape, conjuncts in branches  # type: ignore[misc]
                )
            )
        found.discard(position)
        covers.append(frozenset(found))
    return covers


def _branch_shapes(
    assertion: MappingAssertion,
) -> List[Optional[Tuple[_Shape, FrozenSet[str]]]]:
    """Per branch, its shape and WHERE conjuncts; None for a branch that
    takes no part in containment."""
    shapes: List[Optional[Tuple[_Shape, FrozenSet[str]]]] = []
    for branch in assertion.source.branches:
        if branch.table is None or not branch.modifiers <= _FILTER_ONLY:
            shapes.append(None)
            continue
        shape = (
            branch.table,
            _resolve(assertion.subject, branch),
            _resolve(assertion.object, branch),
        )
        shapes.append((shape, branch.conjuncts))
    return shapes


def _resolve(term_map: TermMap, branch: SourceBranch) -> tuple:
    """What *term_map* computes from one row of *branch*'s base table."""
    if isinstance(term_map, IriTermMap):
        definitions = tuple(_definition(branch, c) for c in term_map.columns)
        return ("iri", term_map.template.fragments, definitions)
    if isinstance(term_map, LiteralTermMap):
        (column,) = term_map.columns
        return ("literal", term_map.datatype, _definition(branch, column))
    return ("constant", term_map.term)


def _definition(branch: SourceBranch, column: str) -> str:
    # a column the branch does not list is star-projected (or missing,
    # which breaks the term map either way): take it as the bare column.
    # Canonical expression texts never collide with column names: a bare
    # identifier would have been profiled as a column reference.
    return branch.columns.get(column) or branch.expressions.get(column, column)
