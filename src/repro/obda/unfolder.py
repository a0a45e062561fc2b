"""Unfolding: SPARQL algebra over the virtual graph into SQL.

This is Phase 3 of the paper's OBDA workflow.  Each BGP is first rewritten
into a UCQ (Phase 2, :mod:`repro.obda.rewriter`); every CQ in the union is
then *unfolded* by picking, for every atom, one mapping assertion whose
source SQL supplies the atom's triples; every combination of choices that
can join becomes one select-project-join block of a union.

A combination cannot join when two term maps bound to one variable could
never produce the same term (IRI templates with different literal
fragments, an IRI against a literal), or when an atom's constant is one
its term map cannot produce.  Choices are enumerated atom by atom and a
choice that cannot join the ones before it is skipped together with every
combination extending it, so the work follows the blocks emitted, not the
cartesian product.

With ``enable_sqo`` the paper's "semantic query optimisation in the
SPARQL-to-SQL translation phase" is applied as well:

* **self-join elimination** -- two atoms reading from the same source with
  the same subject template share one table alias when the subject columns
  are a unique key of the source, turning the q1-style "many data
  properties of one subject" pattern into a single scan.

The result carries, per projected variable, the metadata needed to rebuild
RDF terms from SQL values (Phase 4, result translation).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..owl.model import Ontology
from ..rdf.terms import IRI, Literal, Term, XSD_DECIMAL, XSD_INTEGER, XSD_STRING
from ..sparql import ast as sp
from ..sparql.algebra import (
    AlgBGP,
    AlgExtend,
    AlgFilter,
    AlgJoin,
    AlgLeftJoin,
    AlgUnion,
    AlgebraNode,
    simplify,
    translate,
)
from ..sql import ast as sql
from ..sql.catalog import Catalog
from .cq import (
    Atom,
    ClassAtom,
    ConjunctiveQuery,
    CqTerm,
    DataAtom,
    RoleAtom,
    Vocabulary,
    bgp_to_cq,
)
from .mapping import (
    ConstantTermMap,
    IriTermMap,
    LiteralTermMap,
    MappingAssertion,
    MappingCollection,
    TermMap,
    assertion_body_key,
)
from .rewriter import RewritingResult, TreeWitnessRewriter, merge_rewritings


class UnfoldingError(ValueError):
    """Raised when a query cannot be translated to SQL."""


# ---------------------------------------------------------------------------
# variable metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarMeta:
    """How to rebuild the RDF term of a variable from its SQL value."""

    kind: str  # 'iri' | 'literal'
    datatype: str = XSD_STRING

    def merge(self, other: "VarMeta") -> "VarMeta":
        if self.kind != other.kind:
            raise UnfoldingError(
                f"variable is an IRI in one union branch and a literal in "
                f"another ({self} vs {other})"
            )
        if self.datatype == other.datatype:
            return self
        return VarMeta(self.kind, XSD_STRING)


@dataclass
class Fragment:
    """An unfolded sub-plan: a SELECT producing one column per variable."""

    statement: Optional[sql.SelectStatement]  # None == empty result
    var_meta: Dict[sp.Var, VarMeta]

    @property
    def is_empty(self) -> bool:
        return self.statement is None

    def variables(self) -> List[sp.Var]:
        return list(self.var_meta)


def var_column(var: sp.Var) -> str:
    return f"v_{var.name.lower()}"


@dataclass
class UnfoldResult:
    """Final SQL + translation metadata + phase metrics."""

    statement: Optional[sql.SelectStatement]
    columns: List[str]
    column_meta: List[Optional[VarMeta]]
    rewriting: Optional[RewritingResult]
    elapsed_seconds: float
    union_blocks: int
    pruned_combinations: int
    merged_self_joins: int
    #: some BGP's rewriting hit the UCQ cap -- the SQL answers a sound
    #: but possibly incomplete UCQ prefix
    rewriting_truncated: bool = False
    #: IS NOT NULL guards dropped because a FactBase proves the column
    #: can never be NULL (beyond what the declared schema already shows)
    elided_null_guards: int = 0
    #: parent table scans dropped because a verified FK + uniqueness fact
    #: proves the join is a no-op semijoin
    eliminated_joins: int = 0
    #: UCQ disjuncts skipped because they mention provably-empty entities
    empty_disjuncts_skipped: int = 0
    #: labels of the facts that licensed the above, in firing order
    fired_facts: Tuple[str, ...] = ()
    #: self-joins collapsed into a shared (possibly synthesized) scan by a
    #: verified virtual functional dependency or cross-source unique key
    merged_vfd_joins: int = 0
    #: candidate union disjuncts dropped because an exact-mapping
    #: constraint proves the entity's own assertions already cover them
    constraint_pruned_disjuncts: int = 0
    #: labels of the verified constraints that licensed the above
    fired_constraints: Tuple[str, ...] = ()

    @cached_property
    def sql_text(self) -> str:
        # rendered once: the statement AST is immutable
        return self.statement.to_sql() if self.statement is not None else "-- empty --"


@dataclass
class _SharedScan:
    """One alias shared by several VFD-merged atoms of a CQ.

    Accumulates every base column any member projects; when members came
    from *different* source texts the FROM clause synthesizes a single
    bare scan over the union of those columns.
    """

    table: str
    columns: Set[str]
    sources: Set[str]
    labels: List[Tuple[str, str]]  # ("fact" | "constraint", label)

    def scan_statement(self) -> sql.SelectStatement:
        items = tuple(
            sql.SelectItem(sql.ColumnRef(column)) for column in sorted(self.columns)
        )
        return sql.SelectStatement(items=items, source=sql.NamedTable(self.table))


# ---------------------------------------------------------------------------
# the unfolder
# ---------------------------------------------------------------------------


class Unfolder:
    def __init__(
        self,
        mappings: MappingCollection,
        ontology: Ontology,
        rewriter: Optional[TreeWitnessRewriter] = None,
        catalog: Optional[Catalog] = None,
        enable_sqo: bool = True,
        facts=None,
        constraints=None,
        raw_mappings: Optional[MappingCollection] = None,
    ):
        self.mappings = mappings
        self.vocabulary = Vocabulary.from_ontology(ontology)
        self.rewriter = rewriter
        self.catalog = catalog
        self.enable_sqo = enable_sqo
        #: optional repro.analysis.facts.FactBase; every fact-licensed
        #: optimization records the licensing fact's label in fired_facts
        self.facts = facts
        #: optional repro.analysis.constraints.ConstraintSet of verified
        #: exact-mapping and VFD constraints (Hovland et al.); every
        #: constraint-licensed optimization records the constraint label
        self.constraints = constraints
        #: the pre-T-mapping assertions, needed to recognise an exact
        #: entity's *own* disjuncts among the compiled T-mapping ones
        #: (by body, not id: the compiler re-keys shared bodies)
        self.raw_mappings = raw_mappings
        # per entity: body keys of its own raw assertions (exact pruning),
        # or None when it has no raw assertions of its own
        self._own_body_cache: Dict[str, Optional[frozenset]] = {}
        # per assertion id: VFD merge eligibility, see _vfd_eligibility
        self._vfd_cache: Dict[str, object] = {}
        # per assertion id: (guarded columns, fact-elided (column, label)s)
        self._nullable_cache: Dict[
            str, Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]
        ] = {}
        # per assertion id: unique-subject info (key columns, fact label)
        self._unique_cache: Dict[
            str, Optional[Tuple[Tuple[str, ...], Optional[str]]]
        ] = {}
        # per assertion id: FK-elimination parent info, see _parent_key_info
        self._parent_cache: Dict[str, Optional[Tuple[str, Tuple[str, ...], str]]] = {}

    # -- public API ---------------------------------------------------------

    def unfold_query(self, query: sp.SelectQuery) -> UnfoldResult:
        started = time.perf_counter()
        # fresh aliases per query: the emitted SQL text is deterministic
        # for a given query, so unfolded sizes and EXPLAIN traces repeat
        # from one unfolding of it to the next
        self._alias_counter = itertools.count()
        self._pruned = 0
        self._merged = 0
        self._union_blocks = 0
        # one rewriting per BGP; the query reports their merge
        self._rewritings: List[RewritingResult] = []
        self._elided_guards = 0
        self._eliminated_joins = 0
        self._vfd_merged = 0
        self._constraint_pruned = 0
        self._fired_facts: Dict[str, None] = {}
        self._fired_constraints: Dict[str, None] = {}
        algebra = simplify(translate(query.where))
        needed = self._query_level_variables(query, algebra)
        fragment = self._unfold_node(algebra, needed)
        statement, columns, metas = self._apply_query_level(query, fragment)
        elapsed = time.perf_counter() - started
        rewriting = merge_rewritings(self._rewritings)
        return UnfoldResult(
            statement=statement,
            columns=columns,
            column_meta=metas,
            rewriting=rewriting,
            elapsed_seconds=elapsed,
            union_blocks=self._union_blocks,
            pruned_combinations=self._pruned,
            merged_self_joins=self._merged,
            rewriting_truncated=rewriting is not None and rewriting.truncated,
            elided_null_guards=self._elided_guards,
            eliminated_joins=self._eliminated_joins,
            empty_disjuncts_skipped=(
                rewriting.empty_disjuncts_skipped if rewriting is not None else 0
            ),
            fired_facts=tuple(self._fired_facts),
            merged_vfd_joins=self._vfd_merged,
            constraint_pruned_disjuncts=self._constraint_pruned,
            fired_constraints=tuple(self._fired_constraints),
        )

    def _record_fact(self, label: str) -> None:
        self._fired_facts.setdefault(label)

    def _record_constraint(self, label: str) -> None:
        self._fired_constraints.setdefault(label)

    # -- algebra lowering ------------------------------------------------------

    @staticmethod
    def _query_level_variables(
        query: sp.SelectQuery, algebra: AlgebraNode
    ) -> Set[sp.Var]:
        """Variables needed above the WHERE clause."""
        from ..sparql.algebra import algebra_variables
        from ..sparql.ast import expression_variables

        needed: Set[sp.Var] = set()
        if query.select_star:
            needed.update(algebra_variables(algebra))
        if query.has_aggregates():
            # SUM/COUNT/AVG are multiplicity-sensitive: every pattern
            # variable must survive into the fragment so the DISTINCT over
            # union blocks dedups full assignments, not the projected slice
            # (projecting ?member away before SUM(?production) would
            # collapse two members with equal production into one row)
            needed.update(algebra_variables(algebra))
        for projection in query.projections:
            if projection.expression is None:
                needed.add(projection.var)
            else:
                needed.update(expression_variables(projection.expression))
        for group in query.group_by:
            needed.update(expression_variables(group))
        for having in query.having:
            needed.update(expression_variables(having))
        for condition in query.order_by:
            needed.update(expression_variables(condition.expression))
        return needed

    @staticmethod
    def _node_variables(node: AlgebraNode) -> Set[sp.Var]:
        from ..sparql.algebra import algebra_variables

        return set(algebra_variables(node))

    def _unfold_node(self, node: AlgebraNode, needed: Set[sp.Var]) -> Fragment:
        from ..sparql.ast import expression_variables

        if isinstance(node, AlgBGP):
            return self._unfold_bgp(node, needed)
        if isinstance(node, AlgJoin):
            left_vars = self._node_variables(node.left)
            right_vars = self._node_variables(node.right)
            return self._join(
                self._unfold_node(node.left, (needed | right_vars) & left_vars),
                self._unfold_node(node.right, (needed | left_vars) & right_vars),
            )
        if isinstance(node, AlgLeftJoin):
            left_vars = self._node_variables(node.left)
            right_vars = self._node_variables(node.right)
            condition_vars: Set[sp.Var] = set()
            if node.condition is not None:
                condition_vars = set(expression_variables(node.condition))
            return self._left_join(
                self._unfold_node(
                    node.left,
                    (needed | right_vars | condition_vars) & left_vars,
                ),
                self._unfold_node(
                    node.right,
                    (needed | left_vars | condition_vars) & right_vars,
                ),
                node.condition,
            )
        if isinstance(node, AlgUnion):
            left_vars = self._node_variables(node.left)
            right_vars = self._node_variables(node.right)
            return self._union(
                self._unfold_node(node.left, needed & left_vars),
                self._unfold_node(node.right, needed & right_vars),
            )
        if isinstance(node, AlgFilter):
            condition_vars = set(expression_variables(node.condition))
            return self._filter(
                self._unfold_node(node.child, needed | condition_vars),
                node.condition,
            )
        if isinstance(node, AlgExtend):
            condition_vars = set(expression_variables(node.expression))
            child_needed = (needed - {node.var}) | condition_vars
            return self._extend(
                self._unfold_node(node.child, child_needed),
                node.var,
                node.expression,
            )
        raise UnfoldingError(f"cannot unfold algebra node {node!r}")

    # -- BGP unfolding -----------------------------------------------------------

    def _unfold_bgp(self, node: AlgBGP, needed: Set[sp.Var]) -> Fragment:
        if not node.triples:
            # the unit table: SELECT with no FROM, zero variables
            return Fragment(
                sql.SelectStatement(
                    items=(sql.SelectItem(sql.LiteralValue(1), "one"),), source=None
                ),
                {},
            )
        answer_vars = []
        seen: Set[sp.Var] = set()
        for triple in node.triples:
            for var in triple.variables():
                if var not in seen and var in needed:
                    seen.add(var)
                    answer_vars.append(var)
        cq = bgp_to_cq(node.triples, answer_vars, self.vocabulary)
        if self.rewriter is not None:
            rewriting = self.rewriter.rewrite(cq)
            self._rewritings.append(rewriting)
            for entity in rewriting.skipped_entities:
                self._record_fact(f"empty:{entity}")
            for label in rewriting.exact_pruned:
                self._record_constraint(label)
            cqs = rewriting.cqs
        else:
            cqs = [cq]
        if self.enable_sqo:
            cqs = prune_redundant_cqs(cqs)
        branches: List[Tuple[sql.SelectStatement, Dict[sp.Var, VarMeta]]] = []
        for candidate in cqs:
            branches.extend(self._unfold_cq(candidate, answer_vars))
        self._union_blocks += max(0, len(branches))
        if not branches:
            return Fragment(None, {var: VarMeta("iri") for var in answer_vars})
        # merge metadata across branches
        merged_meta: Dict[sp.Var, VarMeta] = {}
        for _, meta in branches:
            for var, var_meta in meta.items():
                merged_meta[var] = (
                    merged_meta[var].merge(var_meta) if var in merged_meta else var_meta
                )
        statement = _chain_union([stmt for stmt, _ in branches], dedup=True)
        return Fragment(statement, merged_meta)

    def _unfold_cq(
        self, cq: ConjunctiveQuery, answer_vars: Sequence[sp.Var]
    ) -> List[Tuple[sql.SelectStatement, Dict[sp.Var, VarMeta]]]:
        candidate_lists = self._candidate_lists(cq)
        if candidate_lists is None:
            return []
        branches = []
        for combination in _viable_combinations(cq.atoms, candidate_lists):
            built = self._compose_spj(cq, combination, answer_vars)
            if built is not None:
                branches.append(built)
        self._pruned += math.prod(map(len, candidate_lists)) - len(branches)
        return branches

    def _candidate_lists(
        self, cq: ConjunctiveQuery
    ) -> Optional[List[List[MappingAssertion]]]:
        """Per atom, the assertions that may supply it; None when one has
        none (the CQ is empty and no combination is counted as pruned)."""
        candidate_lists: List[List[MappingAssertion]] = []
        for atom in cq.atoms:
            entity = _atom_entity(atom)
            candidates = [
                assertion
                for assertion in self.mappings.for_entity(entity)
                if _assertion_matches_atom(assertion, atom)
            ]
            candidates = self._exact_filter(entity, candidates)
            if not candidates:
                return None
            candidate_lists.append(candidates)
        return candidate_lists

    def _compose_spj(
        self,
        cq: ConjunctiveQuery,
        combination: Sequence[MappingAssertion],
        answer_vars: Sequence[sp.Var],
    ) -> Optional[Tuple[sql.SelectStatement, Dict[sp.Var, VarMeta]]]:
        aliases: List[Tuple[str, MappingAssertion]] = []
        alias_by_merge_key: Dict[Tuple, str] = {}
        atom_alias: List[str] = []
        shared_scans: Dict[str, _SharedScan] = {}
        # counters and licensing labels are committed only when the branch
        # is emitted, so EXPLAIN reports what reaches the SQL
        merged = vfd_merged = elided = 0
        fired: List[Tuple[str, str]] = []  # ("fact" | "constraint", label)
        for atom, assertion in zip(cq.atoms, combination):
            merge_key = None
            eligibility = None
            if self.enable_sqo:
                eligibility = self._vfd_eligibility_for_atom(atom, assertion)
                if eligibility is not None:
                    # VFD keys ignore the source text: scans of the same
                    # table joined on the same subject template may share
                    # one alias even across different projections
                    merge_key = (
                        atom.terms()[0],
                        "vfd",
                        eligibility[0],
                        eligibility[1],
                        assertion.subject.template.pattern,
                    )
                else:
                    merge_key = self._self_join_key(atom, assertion)
            if merge_key is not None and merge_key in alias_by_merge_key:
                alias = alias_by_merge_key[merge_key]
                atom_alias.append(alias)
                if eligibility is not None:
                    _, _, columns, source_norm, labels = eligibility
                    group = shared_scans[alias]
                    cross_source = source_norm not in group.sources
                    group.columns.update(columns)
                    group.sources.add(source_norm)
                    if cross_source:
                        vfd_merged += 1
                    else:
                        merged += 1
                    fired.extend(labels)
                    fired.extend(group.labels)
                    group.labels.extend(labels)
                else:
                    merged += 1
                    unique_info = self._unique_subject_info(assertion)
                    if unique_info is not None and unique_info[1] is not None:
                        fired.append(("fact", unique_info[1]))
                continue
            alias = f"m{next(self._alias_counter)}"
            aliases.append((alias, assertion))
            atom_alias.append(alias)
            if merge_key is not None:
                alias_by_merge_key[merge_key] = alias
                if eligibility is not None:
                    table, _, columns, source_norm, labels = eligibility
                    shared_scans[alias] = _SharedScan(
                        table, set(columns), {source_norm}, list(labels)
                    )
        # bind each CQ term occurrence to a (term map, alias)
        bindings: Dict[sp.Var, List[Tuple[TermMap, str]]] = {}
        constant_constraints: List[sql.Expr] = []

        def bind(term: CqTerm, term_map: TermMap, alias: str) -> bool:
            if isinstance(term, sp.Var):
                bindings.setdefault(term, []).append((term_map, alias))
                return True
            constraint = _constant_constraint(term, term_map, alias)
            if constraint is None:
                return False
            constant_constraints.extend(constraint)
            return True

        for atom, assertion, alias in zip(cq.atoms, combination, atom_alias):
            for term, term_map in _atom_bindings(atom, assertion):
                if not bind(term, term_map, alias):
                    return None
        # FK join elimination: drop parent class-atom scans proven no-op
        # by verified FK + uniqueness facts (Hovland et al.-style)
        dropped: Set[str] = set()
        if self.enable_sqo and self.facts is not None:
            dropped = self._eliminate_fk_joins(
                cq, combination, atom_alias, bindings, fired
            )
            if dropped:
                aliases = [
                    (alias, assertion)
                    for alias, assertion in aliases
                    if alias not in dropped
                ]
        # join constraints between occurrences of the same variable; atoms
        # merged onto one alias yield reflexive ``A.c = A.c``, which holds
        # exactly when A.c is not NULL and is settled by the guards below
        join_constraints: List[sql.Expr] = []
        reflexive: Dict[Tuple[str, str], None] = {}
        for var, occurrences in bindings.items():
            first_map, first_alias = occurrences[0]
            for other_map, other_alias in occurrences[1:]:
                equality = _term_map_equality(
                    first_map, first_alias, other_map, other_alias
                )
                if equality is None:
                    return None
                for conjunct in equality:
                    key = _reflexive_key(conjunct)
                    if key is None:
                        join_constraints.append(conjunct)
                    else:
                        reflexive[key] = None
        # NULL guards: a NULL term-map column means the triple does not
        # exist, so the row must not match the atom (shared aliases from
        # self-join merging would otherwise leak NULLs of sibling columns)
        null_guard_keys: set = set()
        elided_keys: set = set()
        # (alias, column)s whose guard was emitted or proven unnecessary
        settled: set = set()
        null_guards: List[sql.Expr] = []
        for assertion, alias in zip(combination, atom_alias):
            if alias in dropped:
                continue
            if reflexive:
                settled.update((alias, c) for c in assertion.referenced_columns())
            guarded, fact_elided = self._null_guard_info(assertion)
            for column in guarded:
                key = (alias, column)
                if key not in null_guard_keys:
                    null_guard_keys.add(key)
                    null_guards.append(
                        sql.IsNull(sql.ColumnRef(column, alias), negated=True)
                    )
            for column, label in fact_elided:
                key = (alias, column)
                if key not in elided_keys:
                    elided_keys.add(key)
                    elided += 1
                    fired.append(("fact", label))
        for alias, column in reflexive:
            if (alias, column) not in settled:
                settled.add((alias, column))
                null_guards.append(
                    sql.IsNull(sql.ColumnRef(column, alias), negated=True)
                )
        # assemble FROM; aliases merged across different source texts get
        # a synthesized bare scan projecting every column any member needs
        source: Optional[sql.TableRef] = None
        for alias, assertion in aliases:
            group = shared_scans.get(alias)
            if group is not None and len(group.sources) > 1:
                table_ref = sql.SubquerySource(group.scan_statement(), alias)
            else:
                table_ref = self._source_ref(assertion, alias)
            source = (
                table_ref if source is None else sql.Join("INNER", source, table_ref)
            )
        # a variable bound three times repeats the first-vs-other equality
        where = sql.conjunction(
            list(dict.fromkeys(constant_constraints + join_constraints + null_guards))
        )
        # projection: answer variables present in this CQ
        items: List[sql.SelectItem] = []
        meta: Dict[sp.Var, VarMeta] = {}
        for var in answer_vars:
            if var in bindings:
                term_map, alias = bindings[var][0]
                expression = _term_map_expression(term_map, alias)
                meta[var] = _term_map_meta(term_map)
            else:
                expression = sql.LiteralValue(None)
                meta[var] = VarMeta("iri")
            items.append(sql.SelectItem(expression, var_column(var)))
        if not items:
            items.append(sql.SelectItem(sql.LiteralValue(1), "one"))
        statement = sql.SelectStatement(
            items=tuple(items), source=source, where=where
        )
        self._merged += merged
        self._vfd_merged += vfd_merged
        self._eliminated_joins += len(dropped)
        self._elided_guards += elided
        for kind, label in fired:
            if kind == "constraint":
                self._record_constraint(label)
            else:
                self._record_fact(label)
        return statement, meta

    def _self_join_key(
        self, atom: Atom, assertion: MappingAssertion
    ) -> Optional[Tuple]:
        """Key under which this atom's alias may be shared.

        Sharing is sound when the subject columns are a unique key of the
        (single-table) source, so that equal subjects imply equal rows.
        """
        subject = atom.terms()[0]
        if not isinstance(subject, sp.Var):
            return None
        if not isinstance(assertion.subject, IriTermMap):
            return None
        if self._unique_subject_info(assertion) is None:
            return None
        return (subject, assertion.source.key, assertion.subject.template.pattern)

    # -- constraint-licensed pruning and merging ----------------------------

    def _exact_filter(
        self, entity: str, candidates: List[MappingAssertion]
    ) -> List[MappingAssertion]:
        """Keep only an exact entity's own disjuncts.

        A verified exact-mapping constraint proves the entity's own raw
        assertions already produce its full extension, so compiled
        T-mapping disjuncts inherited from proper sub-entities are
        duplicate-producing and can be dropped: UCQ unions deduplicate.
        """
        if (
            self.constraints is None
            or self.raw_mappings is None
            or not self.enable_sqo
            or len(candidates) < 2
        ):
            return candidates
        constraint = self.constraints.exact(entity)
        if constraint is None:
            return candidates
        keep = self._own_body_keys(entity)
        if keep is None:
            return candidates
        kept = [a for a in candidates if assertion_body_key(a) in keep]
        if not kept or len(kept) == len(candidates):
            return candidates
        self._constraint_pruned += len(candidates) - len(kept)
        self._record_constraint(constraint.label())
        return kept

    def _own_body_keys(self, entity: str) -> Optional[frozenset]:
        """Body keys of the entity's *raw* (pre-T-mapping) assertions.

        T-mapping compilation re-keys assertions and may attribute shared
        bodies to sub-entity origins, so ownership is recognised by body,
        not id (see :func:`assertion_body_key`).  None when the entity has
        no raw assertions of its own.
        """
        cached = self._own_body_cache.get(entity, "missing")
        if cached != "missing":
            return cached
        assert self.raw_mappings is not None
        keys = frozenset(
            assertion_body_key(a) for a in self.raw_mappings.for_entity(entity)
        )
        result = keys or None
        self._own_body_cache[entity] = result
        return result

    def _vfd_eligibility_for_atom(
        self, atom: Atom, assertion: MappingAssertion
    ) -> Optional[Tuple]:
        if self.constraints is None:
            return None
        subject = atom.terms()[0]
        if not isinstance(subject, sp.Var):
            return None
        if not isinstance(assertion.subject, IriTermMap):
            return None
        return self._vfd_eligibility(assertion)

    def _vfd_eligibility(self, assertion: MappingAssertion) -> Optional[Tuple]:
        cached = self._vfd_cache.get(assertion.id, "missing")
        if cached != "missing":
            return cached
        result = self._compute_vfd_eligibility(assertion)
        self._vfd_cache[assertion.id] = result
        return result

    def _compute_vfd_eligibility(
        self, assertion: MappingAssertion
    ) -> Optional[Tuple]:
        """(table, determinants, columns, source, labels) when this scan
        may share an alias with sibling scans of the same table joined on
        the same subject template.

        Requires a bare identity projection of one table, with every
        non-subject column functionally determined by the subject columns:
        either via a unique-key fact (the classic case, but now merging
        *across* different projections of the table) or via verified
        VFDs.  Labels carry the licensing facts/constraints for
        explain().
        """
        branch = assertion.source.projection
        if branch is None:
            return None
        columns = tuple(
            dict.fromkeys(c.lower() for c in assertion.referenced_columns())
        )
        if any(column not in branch.columns for column in columns):
            return None
        determinants = tuple(sorted({c.lower() for c in assertion.subject.columns}))
        if not determinants:
            return None
        labels: List[Tuple[str, str]] = []
        unique = self._unique_subject_info(assertion)
        if unique is not None:
            if unique[1] is not None:
                labels.append(("fact", unique[1]))
        else:
            for column in columns:
                if column in determinants:
                    continue
                vfd = self.constraints.vfd_covers(branch.table, determinants, column)
                if vfd is None:
                    return None
                labels.append(("constraint", vfd.label()))
        return (
            branch.table,
            determinants,
            columns,
            assertion.source.key,
            tuple(labels),
        )

    def _null_guard_info(
        self, assertion: MappingAssertion
    ) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]:
        """(columns still needing an IS NOT NULL guard, fact-elided ones).

        The first tuple are term-map columns that may be NULL; the second
        holds ``(column, fact label)`` pairs for guards the legacy
        (declared-schema) path would have emitted but a FactBase fact
        proved unnecessary -- including over UNION sources, which the
        declared path cannot see through.
        """
        cached = self._nullable_cache.get(assertion.id)
        if cached is not None:
            return cached
        columns = assertion.referenced_columns()
        legacy = self._declared_nullable(assertion, columns)
        result = legacy
        elided: Tuple[Tuple[str, str], ...] = ()
        if self.facts is not None and legacy:
            still_nullable, labels = self._facts_nullable(assertion, legacy)
            result = tuple(c for c in legacy if c in still_nullable)
            elided = tuple(
                (c, labels[c]) for c in legacy if c not in still_nullable
            )
        self._nullable_cache[assertion.id] = (result, elided)
        return result, elided

    def _declared_nullable(
        self, assertion: MappingAssertion, columns: Tuple[str, ...]
    ) -> Tuple[str, ...]:
        """Term-map columns that may be NULL in the assertion's source.

        Columns of a bare single-table projection declared NOT NULL (or
        part of the primary key) in the catalog are dropped; everything
        else conservatively gets an ``IS NOT NULL`` guard.
        """
        branch = assertion.source.single
        if (
            not columns
            or self.catalog is None
            or branch is None
            or not self.catalog.has_table(branch.table)
        ):
            return columns
        table = self.catalog.table(branch.table)
        not_null = {column.lname for column in table.columns if column.not_null}
        not_null.update(table.primary_key)
        return tuple(
            column for column in columns if branch.base_column(column) not in not_null
        )

    def _facts_nullable(
        self, assertion: MappingAssertion, columns: Tuple[str, ...]
    ) -> Tuple[Set[str], Dict[str, str]]:
        """Split *columns* into still-nullable vs fact-proven-not-null.

        A column is proven NOT NULL only when in *every* union branch it
        resolves to a base column carrying a NotNullFact.
        """
        blocks = assertion.source.blocks
        if any(block.table is None for block in blocks):
            return set(columns), {}
        still: Set[str] = set()
        labels: Dict[str, str] = {}
        for column in columns:
            fact_labels: List[str] = []
            for block in blocks:
                base_column = block.base_column(column)
                fact = (
                    self.facts.not_null(block.table, base_column)
                    if base_column is not None
                    else None
                )
                if fact is None:
                    break
                fact_labels.append(fact.label())
            else:
                labels[column] = ";".join(dict.fromkeys(fact_labels))
                continue
            still.add(column)
        return still, labels

    def _unique_subject_info(
        self, assertion: MappingAssertion
    ) -> Optional[Tuple[Tuple[str, ...], Optional[str]]]:
        """(key columns, licensing fact label) when the subject template
        columns contain a key of the (single-table) source.

        The label is None when the declared PK already licenses the merge
        (the seed behaviour); a data-derived UniqueFact extends coverage
        and is reported as a fired fact.
        """
        cached = self._unique_cache.get(assertion.id, "missing")
        if cached != "missing":
            return cached  # type: ignore[return-value]
        result = self._compute_unique_subject_info(assertion)
        self._unique_cache[assertion.id] = result
        return result

    def _compute_unique_subject_info(
        self, assertion: MappingAssertion
    ) -> Optional[Tuple[Tuple[str, ...], Optional[str]]]:
        if self.catalog is None and self.facts is None:
            return None
        branch = assertion.source.single
        if branch is None or branch.modifiers & {"GROUP BY", "DISTINCT"}:
            return None
        key_columns = {
            branch.base_column(column) for column in assertion.subject.columns
        }
        if self.catalog is not None and self.catalog.has_table(branch.table):
            table = self.catalog.table(branch.table)
            if table.primary_key and set(table.primary_key) <= key_columns:
                return tuple(table.primary_key), None
        if self.facts is not None:
            fact = self.facts.unique_key_within(
                branch.table, key_columns - {None}
            )
            if fact is not None:
                return fact.columns, fact.label()
        return None

    # -- FK join elimination -------------------------------------------------

    def _parent_key_info(
        self, assertion: MappingAssertion
    ) -> Optional[Tuple[str, Tuple[str, ...], str]]:
        """(table, subject base columns in template order, unique label)
        when *assertion* is an unfiltered bare scan whose subject template
        columns contain a verified unique key -- the shape whose join can
        be eliminated when a verified FK guarantees the lookup succeeds.
        """
        cached = self._parent_cache.get(assertion.id, "missing")
        if cached != "missing":
            return cached  # type: ignore[return-value]
        result = self._compute_parent_key_info(assertion)
        self._parent_cache[assertion.id] = result
        return result

    def _compute_parent_key_info(
        self, assertion: MappingAssertion
    ) -> Optional[Tuple[str, Tuple[str, ...], str]]:
        if self.facts is None or not isinstance(assertion.subject, IriTermMap):
            return None
        branch = assertion.source.single
        if branch is None or not branch.plain:
            return None
        key: List[str] = []
        for column in assertion.subject.template.columns:
            base_column = branch.base_column(column)
            if base_column is None:
                return None
            key.append(base_column)
        unique = self.facts.unique_key_within(branch.table, key)
        if unique is None:
            return None
        return branch.table, tuple(key), unique.label()

    def _child_fk_labels(
        self,
        assertion: MappingAssertion,
        template_columns: Tuple[str, ...],
        parent_table: str,
        parent_key: Tuple[str, ...],
    ) -> Optional[List[str]]:
        """Verified-FK labels proving every child row joins the parent.

        Requires a verified ForeignKeyFact aligned positionally with the
        template columns in *every* union branch of the child source.
        """
        labels: List[str] = []
        for block in assertion.source.blocks:
            if block.table is None:
                return None
            child_columns: List[str] = []
            for column in template_columns:
                base_column = block.base_column(column)
                if base_column is None:
                    return None
                child_columns.append(base_column)
            fact = self.facts.covering_fk(
                block.table, child_columns, parent_table, parent_key
            )
            if fact is None:
                return None
            labels.append(fact.label())
        return list(dict.fromkeys(labels))

    def _eliminate_fk_joins(
        self,
        cq: ConjunctiveQuery,
        combination: Sequence[MappingAssertion],
        atom_alias: List[str],
        bindings: Dict[sp.Var, List[Tuple[TermMap, str]]],
        fired: List[Tuple[str, str]],
    ) -> Set[str]:
        """Drop class-atom parent scans proven redundant by FK facts.

        A scan ``C(x)`` over an unfiltered table whose subject key columns
        are a verified unique key is a no-op when another atom binds ``x``
        through an identical IRI template over columns carrying a verified
        FK to that key: every child row finds exactly one parent row, so
        the join neither filters nor duplicates.  The parent alias is
        removed from *bindings* (its FROM entry and guards are skipped by
        the caller); the licensing facts are appended to *fired*, which
        the caller records once the branch is actually emitted.
        """
        counts: Dict[str, int] = {}
        for alias in atom_alias:
            counts[alias] = counts.get(alias, 0) + 1
        assertion_by_alias: Dict[str, MappingAssertion] = dict(
            zip(atom_alias, combination)
        )
        dropped: Set[str] = set()
        for atom, assertion, alias in zip(cq.atoms, combination, atom_alias):
            if alias in dropped or not isinstance(atom, ClassAtom):
                continue
            term = atom.term
            if not isinstance(term, sp.Var) or counts[alias] != 1:
                continue
            parent = self._parent_key_info(assertion)
            if parent is None:
                continue
            parent_table, parent_key, unique_label = parent
            assert isinstance(assertion.subject, IriTermMap)
            parent_template = assertion.subject.template
            occurrences = bindings.get(term, [])
            if len(occurrences) < 2:
                continue
            fk_labels: Optional[List[str]] = None
            for term_map, other_alias in occurrences:
                if other_alias == alias or other_alias in dropped:
                    continue
                if not isinstance(term_map, IriTermMap):
                    continue
                if not term_map.template.compatible_with(parent_template):
                    continue
                supporter = assertion_by_alias.get(other_alias)
                if supporter is None:
                    continue
                fk_labels = self._child_fk_labels(
                    supporter,
                    term_map.template.columns,
                    parent_table,
                    parent_key,
                )
                if fk_labels is not None:
                    break
            if fk_labels is None:
                continue
            dropped.add(alias)
            bindings[term] = [
                (term_map, other_alias)
                for term_map, other_alias in occurrences
                if other_alias != alias
            ]
            fired.append(("fact", unique_label))
            fired.extend(("fact", label) for label in fk_labels)
        return dropped

    def _source_ref(self, assertion: MappingAssertion, alias: str) -> sql.TableRef:
        statement = assertion.parsed_source()
        # inline trivial "SELECT cols FROM table [WHERE ...]" sources when
        # every referenced column is projected bare (no renaming needed)
        return sql.SubquerySource(statement, alias)

    # -- joins / unions / filters ----------------------------------------------------

    def _join(self, left: Fragment, right: Fragment) -> Fragment:
        if left.is_empty or right.is_empty:
            meta = dict(left.var_meta)
            meta.update(right.var_meta)
            return Fragment(None, meta)
        assert left.statement is not None and right.statement is not None
        shared = [var for var in left.var_meta if var in right.var_meta]
        left_alias, right_alias = "lj", "rj"
        condition = sql.conjunction(
            [
                sql.BinaryOp(
                    "=",
                    sql.ColumnRef(var_column(var), left_alias),
                    sql.ColumnRef(var_column(var), right_alias),
                )
                for var in shared
            ]
        )
        items: List[sql.SelectItem] = []
        meta: Dict[sp.Var, VarMeta] = {}
        for var, var_meta in left.var_meta.items():
            items.append(
                sql.SelectItem(
                    sql.ColumnRef(var_column(var), left_alias), var_column(var)
                )
            )
            meta[var] = var_meta
        for var, var_meta in right.var_meta.items():
            if var in meta:
                meta[var] = meta[var].merge(var_meta)
                continue
            items.append(
                sql.SelectItem(
                    sql.ColumnRef(var_column(var), right_alias), var_column(var)
                )
            )
            meta[var] = var_meta
        join: sql.TableRef = sql.Join(
            "INNER",
            sql.SubquerySource(left.statement, left_alias),
            sql.SubquerySource(right.statement, right_alias),
            condition,
        )
        return Fragment(
            sql.SelectStatement(items=tuple(items), source=join), meta
        )

    def _left_join(
        self,
        left: Fragment,
        right: Fragment,
        condition: Optional[sp.Expression],
    ) -> Fragment:
        if left.is_empty:
            meta = dict(left.var_meta)
            meta.update(right.var_meta)
            return Fragment(None, meta)
        if right.is_empty:
            # OPTIONAL over nothing: keep the left side, right vars unbound
            meta = dict(left.var_meta)
            meta.update(right.var_meta)
            assert left.statement is not None
            items = [
                sql.SelectItem(sql.ColumnRef(var_column(v), "lj"), var_column(v))
                for v in left.var_meta
            ] + [
                sql.SelectItem(sql.LiteralValue(None), var_column(v))
                for v in right.var_meta
                if v not in left.var_meta
            ]
            return Fragment(
                sql.SelectStatement(
                    items=tuple(items),
                    source=sql.SubquerySource(left.statement, "lj"),
                ),
                meta,
            )
        assert left.statement is not None and right.statement is not None
        shared = [var for var in left.var_meta if var in right.var_meta]
        left_alias, right_alias = "lj", "rj"
        conjuncts = [
            sql.BinaryOp(
                "=",
                sql.ColumnRef(var_column(var), left_alias),
                sql.ColumnRef(var_column(var), right_alias),
            )
            for var in shared
        ]
        var_exprs: Dict[sp.Var, sql.Expr] = {}
        for var in left.var_meta:
            var_exprs[var] = sql.ColumnRef(var_column(var), left_alias)
        for var in right.var_meta:
            var_exprs.setdefault(var, sql.ColumnRef(var_column(var), right_alias))
        if condition is not None:
            conjuncts.append(self._translate_expression(condition, var_exprs))
        join_condition = sql.conjunction(conjuncts) or sql.LiteralValue(True)
        items = []
        meta = {}
        for var, var_meta in left.var_meta.items():
            items.append(
                sql.SelectItem(
                    sql.ColumnRef(var_column(var), left_alias), var_column(var)
                )
            )
            meta[var] = var_meta
        for var, var_meta in right.var_meta.items():
            if var in meta:
                meta[var] = meta[var].merge(var_meta)
                continue
            items.append(
                sql.SelectItem(
                    sql.ColumnRef(var_column(var), right_alias), var_column(var)
                )
            )
            meta[var] = var_meta
        join = sql.Join(
            "LEFT",
            sql.SubquerySource(left.statement, left_alias),
            sql.SubquerySource(right.statement, right_alias),
            join_condition,
        )
        return Fragment(sql.SelectStatement(items=tuple(items), source=join), meta)

    def _union(self, left: Fragment, right: Fragment) -> Fragment:
        if left.is_empty and right.is_empty:
            meta = dict(left.var_meta)
            meta.update(right.var_meta)
            return Fragment(None, meta)
        if left.is_empty:
            left, right = right, left
        assert left.statement is not None
        meta: Dict[sp.Var, VarMeta] = dict(left.var_meta)
        for var, var_meta in right.var_meta.items():
            meta[var] = meta[var].merge(var_meta) if var in meta else var_meta
        all_vars = list(meta)

        def pad(fragment: Fragment, alias: str) -> sql.SelectStatement:
            assert fragment.statement is not None
            items = []
            for var in all_vars:
                if var in fragment.var_meta:
                    expr: sql.Expr = sql.ColumnRef(var_column(var), alias)
                else:
                    expr = sql.LiteralValue(None)
                items.append(sql.SelectItem(expr, var_column(var)))
            return sql.SelectStatement(
                items=tuple(items),
                source=sql.SubquerySource(fragment.statement, alias),
            )

        left_statement = pad(left, "ub1")
        if right.is_empty:
            return Fragment(left_statement, meta)
        right_statement = pad(right, "ub2")
        return Fragment(
            _chain_union([left_statement, right_statement], dedup=False), meta
        )

    def _filter(self, fragment: Fragment, condition: sp.Expression) -> Fragment:
        if fragment.is_empty:
            return fragment
        assert fragment.statement is not None
        alias = "fq"
        var_exprs = {
            var: sql.ColumnRef(var_column(var), alias) for var in fragment.var_meta
        }
        predicate = self._translate_expression(condition, var_exprs)
        items = [
            sql.SelectItem(sql.ColumnRef(var_column(var), alias), var_column(var))
            for var in fragment.var_meta
        ]
        return Fragment(
            sql.SelectStatement(
                items=tuple(items),
                source=sql.SubquerySource(fragment.statement, alias),
                where=predicate,
            ),
            dict(fragment.var_meta),
        )

    def _extend(
        self, fragment: Fragment, var: sp.Var, expression: sp.Expression
    ) -> Fragment:
        if fragment.is_empty:
            meta = dict(fragment.var_meta)
            meta[var] = VarMeta("literal")
            return Fragment(None, meta)
        assert fragment.statement is not None
        alias = "bq"
        var_exprs = {
            v: sql.ColumnRef(var_column(v), alias) for v in fragment.var_meta
        }
        computed = self._translate_expression(expression, var_exprs)
        items = [
            sql.SelectItem(sql.ColumnRef(var_column(v), alias), var_column(v))
            for v in fragment.var_meta
        ]
        items.append(sql.SelectItem(computed, var_column(var)))
        meta = dict(fragment.var_meta)
        meta[var] = _expression_meta(expression, fragment.var_meta)
        return Fragment(
            sql.SelectStatement(
                items=tuple(items),
                source=sql.SubquerySource(fragment.statement, alias),
            ),
            meta,
        )

    # -- expressions ---------------------------------------------------------------

    def _translate_expression(
        self, expression: sp.Expression, var_exprs: Dict[sp.Var, sql.Expr]
    ) -> sql.Expr:
        return translate_expression(expression, var_exprs)

    # -- query level -----------------------------------------------------------------

    def _apply_query_level(
        self, query: sp.SelectQuery, fragment: Fragment
    ) -> Tuple[Optional[sql.SelectStatement], List[str], List[Optional[VarMeta]]]:
        projections = list(query.projections) or [
            sp.Projection(var) for var in fragment.var_meta
        ]
        columns = [projection.var.name for projection in projections]
        if fragment.is_empty:
            metas = [fragment.var_meta.get(p.var) for p in projections]
            return None, columns, metas
        assert fragment.statement is not None
        alias = "q"
        var_exprs: Dict[sp.Var, sql.Expr] = {
            var: sql.ColumnRef(var_column(var), alias) for var in fragment.var_meta
        }
        items: List[sql.SelectItem] = []
        metas: List[Optional[VarMeta]] = []
        for projection in projections:
            if projection.expression is None:
                expression = var_exprs.get(projection.var, sql.LiteralValue(None))
                metas.append(fragment.var_meta.get(projection.var))
            else:
                expression = translate_expression(projection.expression, var_exprs)
                metas.append(
                    _expression_meta(projection.expression, fragment.var_meta)
                )
            items.append(sql.SelectItem(expression, var_column(projection.var)))
        group_by: Tuple[sql.Expr, ...] = tuple(
            translate_expression(g, var_exprs) for g in query.group_by
        )
        # HAVING and ORDER BY run after projection/dedup: variables that
        # are projected must be referenced through their output column.
        output_var_exprs: Dict[sp.Var, sql.Expr] = dict(var_exprs)
        for projection in projections:
            output_var_exprs[projection.var] = sql.ColumnRef(
                var_column(projection.var)
            )
        having = None
        if query.having:
            having_parts = [
                translate_expression(
                    h, output_var_exprs, alias_exprs=_alias_map(items)
                )
                for h in query.having
            ]
            having = sql.conjunction(having_parts)
        order_by: Tuple[sql.OrderItem, ...] = tuple(
            sql.OrderItem(
                translate_expression(
                    c.expression, output_var_exprs, alias_exprs=_alias_map(items)
                ),
                c.ascending,
            )
            for c in query.order_by
        )
        statement = sql.SelectStatement(
            items=tuple(items),
            source=sql.SubquerySource(fragment.statement, alias),
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=query.limit,
            offset=query.offset,
            distinct=query.distinct,
        )
        return statement, columns, metas


def _alias_map(items: Sequence[sql.SelectItem]) -> Dict[str, sql.Expr]:
    return {item.output_name: item.expr for item in items}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _chain_union(
    statements: List[sql.SelectStatement], dedup: bool
) -> sql.SelectStatement:
    """Right-fold SELECT blocks into a UNION [ALL] chain."""
    assert statements
    result: Optional[sql.SelectStatement] = None
    for statement in reversed(statements):
        if result is None:
            result = statement
        else:
            result = sql.SelectStatement(
                items=statement.items,
                source=statement.source,
                where=statement.where,
                group_by=statement.group_by,
                having=statement.having,
                order_by=statement.order_by,
                limit=statement.limit,
                offset=statement.offset,
                distinct=statement.distinct,
                union=sql.UnionTail(result, all=not dedup),
            )
    assert result is not None
    return result


def _atom_entity(atom: Atom) -> str:
    if isinstance(atom, ClassAtom):
        return atom.cls
    if isinstance(atom, RoleAtom):
        return atom.role
    return atom.prop


def _assertion_matches_atom(assertion: MappingAssertion, atom: Atom) -> bool:
    if isinstance(atom, ClassAtom):
        return assertion.is_class_assertion
    return not assertion.is_class_assertion


def _term_map_expression(term_map: TermMap, alias: str) -> sql.Expr:
    if isinstance(term_map, IriTermMap):
        template = term_map.template
        fragments = template.fragments
        columns = template.columns
        args: List[sql.Expr] = []
        for index, fragment in enumerate(fragments):
            if fragment:
                args.append(sql.LiteralValue(fragment))
            if index < len(columns):
                args.append(sql.ColumnRef(columns[index], alias))
        if len(args) == 1:
            return args[0]
        return sql.FunctionCall("CONCAT", tuple(args))
    if isinstance(term_map, LiteralTermMap):
        return sql.ColumnRef(term_map.column, alias)
    assert isinstance(term_map, ConstantTermMap)
    term = term_map.term
    if isinstance(term, IRI):
        return sql.LiteralValue(term.value)
    assert isinstance(term, Literal)
    return sql.LiteralValue(term.to_python())


def _term_map_meta(term_map: TermMap) -> VarMeta:
    if isinstance(term_map, IriTermMap):
        return VarMeta("iri")
    if isinstance(term_map, LiteralTermMap):
        return VarMeta("literal", term_map.datatype)
    term = term_map.term
    if isinstance(term, IRI):
        return VarMeta("iri")
    assert isinstance(term, Literal)
    return VarMeta("literal", term.datatype)


def _atom_bindings(
    atom: Atom, assertion: MappingAssertion
) -> Tuple[Tuple[CqTerm, TermMap], ...]:
    """The (CQ term, term map) pairs choosing *assertion* binds, in order."""
    if isinstance(atom, ClassAtom):
        return ((atom.term, assertion.subject),)
    subject, obj = atom.terms()
    return ((subject, assertion.subject), (obj, assertion.object))


def _shape_key(term_map: TermMap) -> Optional[Tuple[str, ...]]:
    """Equivalence class of a term map under :func:`_term_map_equality`.

    Two IRI or literal term maps can produce the same RDF term exactly
    when their keys are equal: IRI templates by their literal fragments
    (``Template.compatible_with``; never empty), literals all alike
    (``()``).  Constant term maps get None -- matching a constant against
    a template is not transitive, so they have no class.
    """
    if isinstance(term_map, IriTermMap):
        return term_map.template.fragments
    if isinstance(term_map, LiteralTermMap):
        return ()
    return None


#: per atom: each surviving candidate with the (variable, shape key)
#: checks it must pass against the variables bound before it
_Level = List[Tuple[MappingAssertion, List[Tuple[sp.Var, Tuple[str, ...]]]]]


def _viable_combinations(
    atoms: Sequence[Atom], candidate_lists: Sequence[Sequence[MappingAssertion]]
) -> Iterator[Tuple[MappingAssertion, ...]]:
    """The combinations of ``itertools.product(*candidate_lists)`` that can
    join, in product order.

    A candidate survives for its atom only if every constant of the atom
    matches its term map (the ``_constant_constraint`` check) and every
    variable it binds has the shape key of that variable's first
    occurrence (the ``_term_map_equality`` check).  A variable that some
    candidate binds through a constant term map is left to
    ``_compose_spj``'s exact check: with a constant in its class, FK join
    elimination (which drops a first occurrence) could make a pair that
    fails here pass there.
    """
    bound: List[List[Tuple[MappingAssertion, List[Tuple[sp.Var, TermMap]]]]] = []
    unchecked: Set[sp.Var] = set()
    for atom, candidates in zip(atoms, candidate_lists):
        level = []
        for assertion in candidates:
            variables = []
            for term, term_map in _atom_bindings(atom, assertion):
                if not isinstance(term, sp.Var):
                    # only whether a constraint exists matters, not its alias
                    if _constant_constraint(term, term_map, "") is None:
                        break
                    continue
                if _shape_key(term_map) is None:
                    unchecked.add(term)
                variables.append((term, term_map))
            else:
                level.append((assertion, variables))
        bound.append(level)
    levels: List[_Level] = [
        [
            (
                assertion,
                [
                    (var, _shape_key(term_map))
                    for var, term_map in variables
                    if var not in unchecked
                ],
            )
            for assertion, variables in level
        ]
        for level in bound
    ]
    return _extend_combination(levels, 0, {}, ())


def _extend_combination(
    levels: Sequence[_Level],
    depth: int,
    shapes: Dict[sp.Var, Tuple[str, ...]],
    prefix: Tuple[MappingAssertion, ...],
) -> Iterator[Tuple[MappingAssertion, ...]]:
    """Depth-first walk of *levels*; *shapes* maps each variable bound so
    far to its first occurrence's shape key."""
    if depth == len(levels):
        yield prefix
        return
    for assertion, checks in levels[depth]:
        extended = shapes
        for var, key in checks:
            shape = extended.get(var)
            if shape is None:
                if extended is shapes:
                    extended = dict(shapes)
                extended[var] = key
            elif shape != key:
                break
        else:
            yield from _extend_combination(
                levels, depth + 1, extended, prefix + (assertion,)
            )


def _term_map_equality(
    first: TermMap, first_alias: str, second: TermMap, second_alias: str
) -> Optional[List[sql.Expr]]:
    """Join conditions forcing two term maps to produce the same RDF term.

    Returns None when the maps can never coincide (static pruning).
    """
    if isinstance(first, IriTermMap) and isinstance(second, IriTermMap):
        if not first.template.compatible_with(second.template):
            return None
        return [
            sql.BinaryOp(
                "=",
                sql.ColumnRef(first_col, first_alias),
                sql.ColumnRef(second_col, second_alias),
            )
            for first_col, second_col in zip(first.columns, second.columns)
        ]
    if isinstance(first, LiteralTermMap) and isinstance(second, LiteralTermMap):
        return [
            sql.BinaryOp(
                "=",
                sql.ColumnRef(first.column, first_alias),
                sql.ColumnRef(second.column, second_alias),
            )
        ]
    if isinstance(first, ConstantTermMap):
        constraint = _constant_term_constraint(first.term, second, second_alias)
        return constraint
    if isinstance(second, ConstantTermMap):
        return _constant_term_constraint(second.term, first, first_alias)
    # IRI vs literal can never be equal
    return None


def _reflexive_key(conjunct: sql.Expr) -> Optional[Tuple[str, str]]:
    """``(alias, column)`` when *conjunct* is ``A.c = A.c``, else None."""
    if (
        isinstance(conjunct, sql.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, sql.ColumnRef)
        and isinstance(conjunct.right, sql.ColumnRef)
        and conjunct.left.key == conjunct.right.key
    ):
        return conjunct.left.key
    return None


def _constant_constraint(
    term: CqTerm, term_map: TermMap, alias: str
) -> Optional[List[sql.Expr]]:
    assert isinstance(term, (IRI, Literal))
    return _constant_term_constraint(term, term_map, alias)


def _constant_term_constraint(
    term: Term, term_map: TermMap, alias: str
) -> Optional[List[sql.Expr]]:
    if isinstance(term_map, ConstantTermMap):
        return [] if term_map.term == term else None
    if isinstance(term, IRI):
        if not isinstance(term_map, IriTermMap):
            return None
        matched = term_map.template.match(term.value)
        if matched is None:
            return None
        return [
            sql.BinaryOp("=", sql.ColumnRef(column, alias), sql.LiteralValue(value))
            for column, value in zip(term_map.columns, matched)
        ]
    assert isinstance(term, Literal)
    if not isinstance(term_map, LiteralTermMap):
        return None
    return [
        sql.BinaryOp(
            "=",
            sql.ColumnRef(term_map.column, alias),
            sql.LiteralValue(term.to_python()),
        )
    ]


# ---------------------------------------------------------------------------
# SPARQL expression -> SQL expression
# ---------------------------------------------------------------------------

_OP_MAP = {
    "&&": "AND",
    "||": "OR",
    "=": "=",
    "!=": "<>",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
}


def translate_expression(
    expression: sp.Expression,
    var_exprs: Dict[sp.Var, sql.Expr],
    alias_exprs: Optional[Dict[str, sql.Expr]] = None,
) -> sql.Expr:
    """Translate a SPARQL expression into SQL over variable value columns."""
    if isinstance(expression, sp.VarExpr):
        if expression.var in var_exprs:
            return var_exprs[expression.var]
        if alias_exprs is not None:
            key = var_column(expression.var)
            if key in alias_exprs:
                return alias_exprs[key]
        raise UnfoldingError(f"variable ?{expression.var.name} not in scope")
    if isinstance(expression, sp.TermExpr):
        term = expression.term
        if isinstance(term, IRI):
            return sql.LiteralValue(term.value)
        if isinstance(term, Literal):
            return sql.LiteralValue(term.to_python())
        raise UnfoldingError("blank node constants are not translatable")
    if isinstance(expression, sp.UnaryExpr):
        operand = translate_expression(expression.operand, var_exprs, alias_exprs)
        if expression.op == "!":
            return sql.UnaryOp("NOT", operand)
        return sql.UnaryOp(expression.op, operand)
    if isinstance(expression, sp.BinaryExpr):
        if expression.op not in _OP_MAP:
            raise UnfoldingError(f"operator {expression.op!r} not translatable")
        return sql.BinaryOp(
            _OP_MAP[expression.op],
            translate_expression(expression.left, var_exprs, alias_exprs),
            translate_expression(expression.right, var_exprs, alias_exprs),
        )
    if isinstance(expression, sp.CallExpr):
        return _translate_call(expression, var_exprs, alias_exprs)
    if isinstance(expression, sp.AggregateExpr):
        return _translate_aggregate(expression, var_exprs, alias_exprs)
    raise UnfoldingError(f"cannot translate expression {expression!r}")


def _translate_call(
    expression: sp.CallExpr,
    var_exprs: Dict[sp.Var, sql.Expr],
    alias_exprs: Optional[Dict[str, sql.Expr]],
) -> sql.Expr:
    name = expression.name.upper()
    args = [
        translate_expression(arg, var_exprs, alias_exprs) for arg in expression.args
    ]
    if name == "BOUND":
        return sql.IsNull(args[0], negated=True)
    if name == "STR":
        return args[0]
    if name.startswith("CAST:"):
        return args[0]  # literal columns already carry native SQL types
    if name == "YEAR":
        return sql.FunctionCall("YEAR", tuple(args))
    if name in ("UCASE", "LCASE"):
        return sql.FunctionCall("UPPER" if name == "UCASE" else "LOWER", tuple(args))
    if name == "STRLEN":
        return sql.FunctionCall("LENGTH", tuple(args))
    if name == "ABS":
        return sql.FunctionCall("ABS", tuple(args))
    if name == "CONCAT":
        return sql.FunctionCall("CONCAT", tuple(args))
    if name == "COALESCE":
        return sql.FunctionCall("COALESCE", tuple(args))
    if name == "CONTAINS":
        if isinstance(args[1], sql.LiteralValue) and isinstance(
            args[1].value, str
        ):
            return sql.BinaryOp(
                "LIKE", args[0], sql.LiteralValue(f"%{args[1].value}%")
            )
    if name == "STRSTARTS":
        if isinstance(args[1], sql.LiteralValue) and isinstance(args[1].value, str):
            return sql.BinaryOp("LIKE", args[0], sql.LiteralValue(f"{args[1].value}%"))
    if name == "REGEX":
        # only anchored-free simple patterns are translated, as LIKE
        if len(args) >= 2 and isinstance(args[1], sql.LiteralValue) and isinstance(
            args[1].value, str
        ) and not any(c in args[1].value for c in "^$[](){}|\\+*?."):
            return sql.BinaryOp("LIKE", args[0], sql.LiteralValue(f"%{args[1].value}%"))
    raise UnfoldingError(f"function {expression.name!r} not translatable to SQL")


def _translate_aggregate(
    expression: sp.AggregateExpr,
    var_exprs: Dict[sp.Var, sql.Expr],
    alias_exprs: Optional[Dict[str, sql.Expr]],
) -> sql.Expr:
    if expression.argument is None:
        return sql.FunctionCall("COUNT", (sql.Star(),))
    argument = translate_expression(expression.argument, var_exprs, alias_exprs)
    return sql.FunctionCall(
        expression.name.upper(), (argument,), distinct=expression.distinct
    )


def _expression_meta(
    expression: sp.Expression, var_meta: Dict[sp.Var, VarMeta]
) -> VarMeta:
    """Infer result metadata of a projected expression."""
    if isinstance(expression, sp.VarExpr):
        return var_meta.get(expression.var, VarMeta("literal"))
    if isinstance(expression, sp.AggregateExpr):
        if expression.name == "COUNT":
            return VarMeta("literal", XSD_INTEGER)
        return VarMeta("literal", XSD_DECIMAL)
    if isinstance(expression, sp.TermExpr) and isinstance(expression.term, IRI):
        return VarMeta("iri")
    if isinstance(expression, sp.BinaryExpr) and expression.op in "+-*/":
        return VarMeta("literal", XSD_DECIMAL)
    return VarMeta("literal")


# ---------------------------------------------------------------------------
# UCQ redundancy elimination (semantic query optimization)
# ---------------------------------------------------------------------------


def cq_homomorphism(general: ConjunctiveQuery, specific: ConjunctiveQuery) -> bool:
    """Is there a homomorphism from *general* into *specific*?

    If so, every answer of *specific* is an answer of *general*, so
    *specific* is redundant in a union containing *general*.
    """
    if general.answer_vars != specific.answer_vars:
        return False

    atoms = list(general.atoms)

    def extend(index: int, mapping: Dict[sp.Var, CqTerm]) -> bool:
        if index == len(atoms):
            return True
        atom = atoms[index]
        for candidate in specific.atoms:
            if type(candidate) is not type(atom):
                continue
            if isinstance(atom, ClassAtom):
                if atom.cls != candidate.cls:  # type: ignore[union-attr]
                    continue
            elif isinstance(atom, RoleAtom):
                if atom.role != candidate.role:  # type: ignore[union-attr]
                    continue
            elif isinstance(atom, DataAtom):
                if atom.prop != candidate.prop:  # type: ignore[union-attr]
                    continue
            new_mapping = dict(mapping)
            success = True
            for general_term, specific_term in zip(atom.terms(), candidate.terms()):
                if isinstance(general_term, sp.Var):
                    if general_term in general.answer_vars:
                        if general_term != specific_term:
                            success = False
                            break
                    elif general_term in new_mapping:
                        if new_mapping[general_term] != specific_term:
                            success = False
                            break
                    else:
                        new_mapping[general_term] = specific_term
                elif general_term != specific_term:
                    success = False
                    break
            if success and extend(index + 1, new_mapping):
                return True
        return False

    return extend(0, {})


def prune_redundant_cqs(cqs: List[ConjunctiveQuery]) -> List[ConjunctiveQuery]:
    """Drop CQs subsumed by another CQ in the union."""
    kept: List[ConjunctiveQuery] = []
    # shorter queries are more general more often; test them first
    ordered = sorted(cqs, key=lambda cq: len(cq.atoms))
    for candidate in ordered:
        if any(cq_homomorphism(existing, candidate) for existing in kept):
            continue
        kept.append(candidate)
    return kept
