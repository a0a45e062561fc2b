"""Unfolding: SPARQL algebra over the virtual graph into SQL.

This is Phase 3 of the paper's OBDA workflow.  Each BGP is first rewritten
into a UCQ (Phase 2, :mod:`repro.obda.rewriter`); every CQ in the union is
then *unfolded* by picking, for every atom, one mapping assertion whose
source SQL supplies the atom's triples; every combination of choices that
can join becomes one select-project-join block of a union.

A BGP is lowered in three steps, expand -> passes -> emit:

* **Expand** lists, per atom, the assertions that may supply it
  (``_candidate_lists``) and enumerates the combinations that can join
  (``_viable_combinations``), one ``_Block`` each.  A combination cannot
  join when two term maps bound to one variable could never produce the
  same term (IRI templates with different literal fragments, an IRI
  against a literal), or when an atom's constant is one its term map
  cannot produce.  Choices are enumerated atom by atom and a choice that
  cannot join the ones before it is skipped together with every
  combination extending it, so the work follows the blocks emitted, not
  the cartesian product.
* **Passes** rewrite each block in the order of ``Unfolder.passes``, a
  tuple fixed at construction from what is attached; a pass that returns
  None drops the block (it cannot join):

  1. ``_merge_scans`` (``enable_sqo``) -- the paper's "semantic query
     optimisation in the SPARQL-to-SQL translation phase": atoms over one
     subject variable share a table alias.  Self-join elimination when
     the subject columns are a unique key of the single-table source
     (declared PK, or a FactBase uniqueness fact), turning the q1-style
     "many data properties of one subject" pattern into one scan; with a
     ConstraintSet, VFD merging, which also shares one scan across
     different projections of a table.  Without ``enable_sqo``,
     ``_scan_per_atom`` gives every atom its own alias instead.
  2. ``_bind_terms`` -- binds every CQ term occurrence to a (term map,
     alias); a constant becomes a condition.
  3. ``_eliminate_fk_joins`` (``enable_sqo`` and a FactBase) -- drops a
     parent class-atom scan that a verified FK into a verified unique key
     proves to be a no-op semijoin.
  4. ``_join_equalities`` -- equates the occurrences of each variable; a
     reflexive ``A.c = A.c`` from a merged scan is left to the guards.
  5. ``_null_guards`` -- ``IS NOT NULL`` on every term-map column that may
     be NULL; the declared schema elides guards, and with a FactBase so
     do verified not-null facts.
* **Emit** (``_emit``) builds the SELECT block of every surviving
  combination and commits its counters and licensing labels to the
  per-query ``_Unfolding``.  A source that selects and projects one
  table (``_flat_scan``) is scanned as that table, ``FROM t mN``, its
  WHERE conjuncts requalified to ``mN`` in the block's WHERE and its
  renamed columns read under their base names, so FILTERs and constants
  reach the executors' column kernels and indexes; UNIONs, joins,
  select-list expressions, DISTINCT, GROUP BY and LIMIT stay derived
  tables.  The BGP's union is the UNION of every block: UNION already
  answers the set, so two blocks that repeat each other (twins of one
  join source) cost a scan but change no answer.

Under ``enable_sqo`` expand also drops CQs subsumed by another CQ of the
union (``prune_redundant_cqs``) and, with a ConstraintSet and the raw
mappings, keeps only an exact entity's own disjuncts (``_exact_filter``).

The result carries, per projected variable, the metadata needed to rebuild
RDF terms from SQL values (Phase 4, result translation).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..owl.model import Ontology
from ..rdf.terms import IRI, Literal, Term, XSD_DECIMAL, XSD_INTEGER, XSD_STRING
from ..sparql import ast as sp
from ..sparql.ast import expression_variables
from ..sparql.algebra import (
    AlgBGP,
    AlgExtend,
    AlgFilter,
    AlgJoin,
    AlgLeftJoin,
    AlgUnion,
    AlgebraNode,
    algebra_variables,
    simplify,
    translate,
)
from ..sql import ast as sql
from ..sql.catalog import Catalog
from ..sql.plan import statement_has_aggregates
from .containment import covering
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
    MappingSource,
    TermMap,
    assertion_body_key,
    unwrap,
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
    #: self-joins collapsed into one shared base-table scan by a verified
    #: virtual functional dependency or cross-source unique key
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


# ---------------------------------------------------------------------------
# per-query state, the block IR and the per-assertion profile
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Unfolding:
    """What one ``unfold_query`` call accumulates: its alias numbering,
    rewritings, counters and licensing labels.  ``UnfoldResult`` is built
    from it; the unfolder itself holds no per-query state."""

    #: fresh aliases per query: the emitted SQL text is deterministic for
    #: a given query, so unfolded sizes and EXPLAIN traces repeat from one
    #: unfolding of it to the next
    aliases: Iterator[int] = field(default_factory=itertools.count)
    #: one rewriting per BGP; the query reports their merge
    rewritings: List[RewritingResult] = field(default_factory=list)
    union_blocks: int = 0
    pruned: int = 0
    merged: int = 0
    vfd_merged: int = 0
    eliminated_joins: int = 0
    elided_guards: int = 0
    constraint_pruned: int = 0
    fired_facts: Dict[str, None] = field(default_factory=dict)
    fired_constraints: Dict[str, None] = field(default_factory=dict)

    def fire(self, kind: str, label: str) -> None:
        """Record a licensing label; *kind* is "fact" or "constraint"."""
        labels = self.fired_constraints if kind == "constraint" else self.fired_facts
        labels.setdefault(label)

    def commit(self, block: "_Block") -> None:
        """Count an emitted block's merges and record its labels."""
        self.merged += block.merged
        self.vfd_merged += block.vfd_merged
        self.eliminated_joins += len(block.dropped)
        self.elided_guards += block.elided
        for kind, label in block.fired:
            self.fire(kind, label)

    def result(
        self,
        statement: Optional[sql.SelectStatement],
        columns: List[str],
        metas: List[Optional[VarMeta]],
        elapsed: float,
    ) -> UnfoldResult:
        rewriting = merge_rewritings(self.rewritings)
        return UnfoldResult(
            statement=statement,
            columns=columns,
            column_meta=metas,
            rewriting=rewriting,
            elapsed_seconds=elapsed,
            union_blocks=self.union_blocks,
            pruned_combinations=self.pruned,
            merged_self_joins=self.merged,
            rewriting_truncated=rewriting is not None and rewriting.truncated,
            elided_null_guards=self.elided_guards,
            eliminated_joins=self.eliminated_joins,
            empty_disjuncts_skipped=(
                rewriting.empty_disjuncts_skipped if rewriting is not None else 0
            ),
            fired_facts=tuple(self.fired_facts),
            merged_vfd_joins=self.vfd_merged,
            constraint_pruned_disjuncts=self.constraint_pruned,
            fired_constraints=tuple(self.fired_constraints),
        )


@dataclass
class _SharedScan:
    """One alias shared by several VFD-merged atoms of a CQ: the source
    texts of its members and their licensing labels.  Every member is a
    bare projection of the alias's table, so the alias scans the table
    itself whatever columns the members read."""

    sources: Set[str]
    labels: List[Tuple[str, str]]  # ("fact" | "constraint", label)


@dataclass(eq=False)
class _Block:
    """One mapping combination of a CQ on its way to a SELECT block.

    Expand sets ``cq``, ``combination`` and ``unfolding``; the passes fill
    in the rest.  The counters and ``fired`` labels are pending: they are
    committed to the ``_Unfolding`` only when the block reaches the SQL,
    so EXPLAIN reports what the SQL holds.
    """

    cq: ConjunctiveQuery
    combination: Tuple[MappingAssertion, ...]
    unfolding: _Unfolding
    #: the FROM entries, in order
    scans: List[Tuple[str, MappingAssertion]] = field(default_factory=list)
    #: per atom, the alias it reads
    atom_alias: List[str] = field(default_factory=list)
    #: VFD-merged aliases by alias
    shared: Dict[str, _SharedScan] = field(default_factory=dict)
    #: per variable, every (term map, alias) occurrence
    bindings: Dict[sp.Var, List[Tuple[TermMap, str]]] = field(default_factory=dict)
    #: the WHERE conjuncts in order: constants, join equalities, guards
    conditions: List[sql.Expr] = field(default_factory=list)
    #: (alias, column)s of reflexive equalities, for the guards to settle
    reflexive: Dict[Tuple[str, str], None] = field(default_factory=dict)
    #: aliases FK-join elimination removed from the FROM clause
    dropped: Set[str] = field(default_factory=set)
    merged: int = 0
    vfd_merged: int = 0
    elided: int = 0
    fired: List[Tuple[str, str]] = field(default_factory=list)

    def new_scan(self, assertion: MappingAssertion) -> str:
        alias = f"m{next(self.unfolding.aliases)}"
        self.scans.append((alias, assertion))
        self.atom_alias.append(alias)
        return alias


#: a pass rewrites a block in place; None when the block cannot join
_Pass = Callable[[_Block], Optional[_Block]]


class _VfdScan(NamedTuple):
    """A bare identity projection of *table* whose columns the subject
    columns (*determinants*) functionally determine; *labels* are the
    licensing ("fact" | "constraint", label) pairs."""

    table: str
    determinants: Tuple[str, ...]
    source: str
    labels: Tuple[Tuple[str, str], ...]


class _FlatScan(NamedTuple):
    """A single-table source the block scans as its base table.

    ``SELECT a, b AS c FROM t WHERE p`` is read as ``FROM t mN`` with
    ``p`` ANDed into the block's WHERE: in an inner-join block the two
    are equivalent, and the unfolder qualifies every column it reads and
    never projects ``mN.*``, so the wider scan is never visible.
    """

    table: str
    #: the source's WHERE conjuncts, column refs unqualified (lower case)
    filters: Tuple[sql.Expr, ...]
    #: base columns one of those conjuncts holds ``IS NOT NULL``
    not_null: FrozenSet[str]
    #: (term-map column, base column) for each column of the assertion
    #: the source renames
    renames: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class _AssertionProfile:
    """What the passes need to know about one assertion, computed once."""

    #: term-map columns that still need an IS NOT NULL guard
    guarded: Tuple[str, ...]
    #: (column, fact label) of guards a FactBase fact proved unnecessary
    elided: Tuple[Tuple[str, str], ...]
    #: (key columns, fact label) when the subject columns contain a key of
    #: the single-table source; the label is None for the declared PK
    unique: Optional[Tuple[Tuple[str, ...], Optional[str]]]
    #: set when the scan may share an alias with sibling scans of its
    #: table joined on the same subject template (ConstraintSet attached)
    vfd: Optional[_VfdScan]
    #: (table, subject base columns in template order, unique label) when
    #: the assertion is an unfiltered bare scan keyed by its subject: a
    #: parent whose join a verified FK may eliminate
    parent_key: Optional[Tuple[str, Tuple[str, ...], str]]
    #: set when the block scans the source's base table directly
    flat: Optional[_FlatScan]


class _NoEvidence:
    """Stands in for an absent FactBase or ConstraintSet: proves nothing."""

    not_null = unique_key_within = covering_fk = exact = staticmethod(lambda *args: None)


_NO_EVIDENCE = _NoEvidence()


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
        # what the optimizations consult; an absent artifact proves nothing
        self._facts = facts if facts is not None else _NO_EVIDENCE
        exact = enable_sqo and constraints is not None and raw_mappings is not None
        self._exact = constraints if exact else _NO_EVIDENCE
        self._prune_ucq = prune_redundant_cqs if enable_sqo else list
        # the block passes, in order (see the module docstring)
        passes: List[_Pass] = [
            self._merge_scans if enable_sqo else _scan_per_atom,
            _bind_terms,
        ]
        if enable_sqo and facts is not None:
            passes.append(self._eliminate_fk_joins)
        passes += [_join_equalities, self._null_guards]
        self.passes: Tuple[_Pass, ...] = tuple(passes)
        # per entity: body keys of its own raw assertions (exact pruning),
        # or None when it has no raw assertions of its own
        self._own_body_cache: Dict[str, Optional[frozenset]] = {}
        # per assertion id, filled on first use
        self._profiles: Dict[str, _AssertionProfile] = {}
        # per source key: the flat scan of a single-table source, or None
        self._flat_sources: Dict[str, Optional[_FlatScan]] = {}
        # per (source key, alias): a flat source's WHERE conjuncts
        # qualified with the alias; aliases restart at m0 in every query,
        # so they repeat
        self._flat_filters: Dict[Tuple[str, str], Tuple[sql.Expr, ...]] = {}

    # -- public API ---------------------------------------------------------

    def unfold_query(self, query: sp.SelectQuery) -> UnfoldResult:
        started = time.perf_counter()
        unfolding = _Unfolding()
        algebra = simplify(translate(query.where))
        needed = self._query_level_variables(query, algebra)
        fragment = self._unfold_node(algebra, needed, unfolding)
        statement, columns, metas = self._apply_query_level(query, fragment)
        return unfolding.result(statement, columns, metas, time.perf_counter() - started)

    # -- algebra lowering ------------------------------------------------------

    @staticmethod
    def _query_level_variables(query: sp.SelectQuery, algebra: AlgebraNode) -> Set[sp.Var]:
        """Variables needed above the WHERE clause."""
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

    def _unfold_node(
        self, node: AlgebraNode, needed: Set[sp.Var], unfolding: _Unfolding
    ) -> Fragment:
        if isinstance(node, AlgBGP):
            return self._unfold_bgp(node, needed, unfolding)
        if isinstance(node, AlgFilter):
            condition_vars = set(expression_variables(node.condition))
            return self._filter(
                self._unfold_node(node.child, needed | condition_vars, unfolding),
                node.condition,
            )
        if isinstance(node, AlgExtend):
            condition_vars = set(expression_variables(node.expression))
            child_needed = (needed - {node.var}) | condition_vars
            return self._extend(
                self._unfold_node(node.child, child_needed, unfolding),
                node.var,
                node.expression,
            )
        if not isinstance(node, (AlgJoin, AlgLeftJoin, AlgUnion)):
            raise UnfoldingError(f"cannot unfold algebra node {node!r}")
        left_vars = set(algebra_variables(node.left))
        right_vars = set(algebra_variables(node.right))
        if isinstance(node, AlgUnion):
            return self._union(
                self._unfold_node(node.left, needed & left_vars, unfolding),
                self._unfold_node(node.right, needed & right_vars, unfolding),
            )
        # a join side also keeps the variables the other side and the
        # OPTIONAL condition read
        wanted = set(needed)
        if isinstance(node, AlgLeftJoin) and node.condition is not None:
            wanted.update(expression_variables(node.condition))
        left = self._unfold_node(node.left, (wanted | right_vars) & left_vars, unfolding)
        right = self._unfold_node(node.right, (wanted | left_vars) & right_vars, unfolding)
        if isinstance(node, AlgJoin):
            return self._join(left, right)
        return self._left_join(left, right, node.condition)

    # -- BGP unfolding: expand -----------------------------------------------

    def _unfold_bgp(
        self, node: AlgBGP, needed: Set[sp.Var], unfolding: _Unfolding
    ) -> Fragment:
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
            unfolding.rewritings.append(rewriting)
            for entity in rewriting.skipped_entities:
                unfolding.fire("fact", f"empty:{entity}")
            for label in rewriting.exact_pruned:
                unfolding.fire("constraint", label)
            cqs = rewriting.cqs
        else:
            cqs = [cq]
        blocks: List[_Block] = []
        for candidate in self._prune_ucq(cqs):
            blocks.extend(self._unfold_cq(candidate, unfolding))
        if not blocks:
            return Fragment(None, {var: VarMeta("iri") for var in answer_vars})
        # Metadata merges over every block, so term translation sees
        # every term map a variable may come from.
        statements: List[sql.SelectStatement] = []
        merged_meta: Dict[sp.Var, VarMeta] = {}
        for block in blocks:
            statement, meta = self._emit(block, answer_vars)
            for var, var_meta in meta.items():
                merged_meta[var] = (
                    merged_meta[var].merge(var_meta) if var in merged_meta else var_meta
                )
            statements.append(statement)
            unfolding.commit(block)
        unfolding.union_blocks += len(statements)
        statement = _chain_union(statements, dedup=True)
        return Fragment(statement, merged_meta)

    def _unfold_cq(self, cq: ConjunctiveQuery, unfolding: _Unfolding) -> List[_Block]:
        """The blocks of *cq*'s combinations that pass every pass, in
        product order."""
        candidate_lists = self._candidate_lists(cq, unfolding)
        if candidate_lists is None:
            return []
        blocks = []
        for combination in _viable_combinations(cq.atoms, candidate_lists):
            block = self._run_passes(_Block(cq, combination, unfolding))
            if block is not None:
                blocks.append(block)
        unfolding.pruned += math.prod(map(len, candidate_lists)) - len(blocks)
        return blocks

    def _run_passes(self, block: _Block) -> Optional[_Block]:
        for run in self.passes:
            block = run(block)
            if block is None:
                return None
        return block

    def _candidate_lists(
        self, cq: ConjunctiveQuery, unfolding: _Unfolding
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
            candidates = self._exact_filter(entity, candidates, unfolding)
            if not candidates:
                return None
            candidate_lists.append(candidates)
        return candidate_lists

    def _exact_filter(
        self,
        entity: str,
        candidates: List[MappingAssertion],
        unfolding: _Unfolding,
    ) -> List[MappingAssertion]:
        """Keep only an exact entity's own disjuncts.

        A verified exact-mapping constraint proves the entity's own raw
        assertions already produce its full extension, so compiled
        T-mapping disjuncts inherited from proper sub-entities are
        duplicate-producing and can be dropped: UCQ unions deduplicate.
        """
        if len(candidates) < 2:
            return candidates
        constraint = self._exact.exact(entity)
        if constraint is None:
            return candidates
        keep = self._own_body_keys(entity)
        if keep is None:
            return candidates
        kept = [a for a in candidates if assertion_body_key(a) in keep]
        if not kept or len(kept) == len(candidates):
            return candidates
        unfolding.constraint_pruned += len(candidates) - len(kept)
        unfolding.fire("constraint", constraint.label())
        return kept

    def _own_body_keys(self, entity: str) -> Optional[frozenset]:
        """Body keys of the entity's *raw* (pre-T-mapping) assertions,
        and of the compiled assertions that cover one of them the
        containment pass dropped.

        T-mapping compilation re-keys assertions and may attribute shared
        bodies to sub-entity origins, so ownership is recognised by body,
        not id (see :func:`assertion_body_key`).  Its containment pass may
        drop an own assertion for a covering one inherited from a
        sub-entity, which then stands in for it.  None when the entity has
        no raw assertions of its own.
        """
        cached = self._own_body_cache.get(entity, "missing")
        if cached != "missing":
            return cached
        assert self.raw_mappings is not None
        own = self.raw_mappings.for_entity(entity)
        keys = {assertion_body_key(a) for a in own}
        compiled = self.mappings.for_entity(entity)
        present = {assertion_body_key(a) for a in compiled}
        dropped = [a for a in own if assertion_body_key(a) not in present]
        if dropped:
            covers = covering(compiled + dropped)
            for position in range(len(compiled), len(covers)):
                keys.update(
                    assertion_body_key(compiled[other])
                    for other in covers[position]
                    if other < len(compiled)
                )
        result = frozenset(keys) or None
        self._own_body_cache[entity] = result
        return result

    # -- BGP unfolding: passes -------------------------------------------------

    def _merge_scans(self, block: _Block) -> _Block:
        """Give atoms that may share a scan one alias (self-join and VFD
        merging); every other atom gets a fresh alias."""
        alias_by_key: Dict[Tuple, str] = {}
        for atom, assertion in zip(block.cq.atoms, block.combination):
            profile = self._profile(assertion)
            key = _merge_key(atom, assertion, profile)
            alias = alias_by_key.get(key) if key is not None else None
            if alias is None:
                alias = block.new_scan(assertion)
                if key is not None:
                    alias_by_key[key] = alias
                    vfd = profile.vfd
                    if vfd is not None:
                        block.shared[alias] = _SharedScan({vfd.source}, list(vfd.labels))
                continue
            block.atom_alias.append(alias)
            vfd = profile.vfd
            if vfd is None:
                block.merged += 1
                assert profile.unique is not None
                if profile.unique[1] is not None:
                    block.fired.append(("fact", profile.unique[1]))
                continue
            group = block.shared[alias]
            if vfd.source in group.sources:
                block.merged += 1
            else:
                block.vfd_merged += 1
            group.sources.add(vfd.source)
            block.fired.extend(vfd.labels)
            block.fired.extend(group.labels)
            group.labels.extend(vfd.labels)
        return block

    def _eliminate_fk_joins(self, block: _Block) -> _Block:
        """Drop class-atom parent scans proven redundant by FK facts.

        A scan ``C(x)`` over an unfiltered table whose subject key columns
        are a verified unique key is a no-op when another atom binds ``x``
        through an identical IRI template over columns carrying a verified
        FK to that key: every child row finds exactly one parent row, so
        the join neither filters nor duplicates (Hovland et al.-style).
        The parent alias leaves the bindings and the FROM clause, and the
        guards pass skips it.
        """
        counts: Dict[str, int] = {}
        for alias in block.atom_alias:
            counts[alias] = counts.get(alias, 0) + 1
        assertion_by_alias: Dict[str, MappingAssertion] = dict(
            zip(block.atom_alias, block.combination)
        )
        dropped = block.dropped
        for atom, assertion, alias in zip(
            block.cq.atoms, block.combination, block.atom_alias
        ):
            if alias in dropped or not isinstance(atom, ClassAtom):
                continue
            term = atom.term
            if not isinstance(term, sp.Var) or counts[alias] != 1:
                continue
            parent = self._profile(assertion).parent_key
            if parent is None:
                continue
            parent_table, parent_key, unique_label = parent
            assert isinstance(assertion.subject, IriTermMap)
            parent_template = assertion.subject.template
            occurrences = block.bindings.get(term, [])
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
            block.bindings[term] = [
                (term_map, other_alias)
                for term_map, other_alias in occurrences
                if other_alias != alias
            ]
            block.fired.append(("fact", unique_label))
            block.fired.extend(("fact", label) for label in fk_labels)
        if dropped:
            block.scans = [scan for scan in block.scans if scan[0] not in dropped]
        return block

    def _null_guards(self, block: _Block) -> _Block:
        """NULL guards: a NULL term-map column means the triple does not
        exist, so the row must not match the atom (shared aliases from
        scan merging would otherwise leak NULLs of sibling columns).

        A reflexive ``A.c = A.c`` holds exactly when ``A.c`` is not NULL,
        so it needs a guard only when no atom on ``A`` settles ``A.c``.
        """
        guarded_keys: Set[Tuple[str, str]] = set()
        elided_keys: Set[Tuple[str, str]] = set()
        # (alias, column)s whose guard was emitted or proven unnecessary
        settled: Set[Tuple[str, str]] = set()
        guards = block.conditions
        for assertion, alias in zip(block.combination, block.atom_alias):
            if alias in block.dropped:
                continue
            if block.reflexive:
                settled.update((alias, c) for c in assertion.referenced_columns())
            profile = self._profile(assertion)
            for column in profile.guarded:
                key = (alias, column)
                if key not in guarded_keys:
                    guarded_keys.add(key)
                    guards.append(sql.IsNull(sql.ColumnRef(column, alias), negated=True))
            for column, label in profile.elided:
                key = (alias, column)
                if key not in elided_keys:
                    elided_keys.add(key)
                    block.elided += 1
                    block.fired.append(("fact", label))
        for alias, column in block.reflexive:
            if (alias, column) not in settled:
                settled.add((alias, column))
                guards.append(sql.IsNull(sql.ColumnRef(column, alias), negated=True))
        return block

    # -- the per-assertion profile ---------------------------------------------

    def _profile(self, assertion: MappingAssertion) -> _AssertionProfile:
        profile = self._profiles.get(assertion.id)
        if profile is None:
            profile = self._profiles[assertion.id] = self._build_profile(assertion)
        return profile

    def _build_profile(self, assertion: MappingAssertion) -> _AssertionProfile:
        flat = self._flat_scan(assertion)
        guarded, elided = self._nullable_columns(assertion, flat)
        unique = vfd = parent_key = None
        if isinstance(assertion.subject, IriTermMap):
            unique = self._unique_subject(assertion)
            if self.constraints is not None:
                vfd = self._vfd_scan(assertion, unique)
            parent_key = self._parent_key(assertion)
        return _AssertionProfile(guarded, elided, unique, vfd, parent_key, flat)

    def _flat_scan(self, assertion: MappingAssertion) -> Optional[_FlatScan]:
        """The source's flat scan with the renames of the columns the
        assertion reads; None unless every one is an output of the source
        (a base column the source does not project stays unread)."""
        source = assertion.source
        if source.key in self._flat_sources:
            flat = self._flat_sources[source.key]
        else:
            flat = self._flat_sources[source.key] = _flat_source(source)
        if flat is None:
            return None
        renames: List[Tuple[str, str]] = []
        for column in assertion.referenced_columns():
            base = source.single.base_column(column)
            if base is None:
                return None
            if base != column:
                renames.append((column, base))
        return flat._replace(renames=tuple(renames)) if renames else flat

    def _nullable_columns(
        self, assertion: MappingAssertion, flat: Optional[_FlatScan]
    ) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]:
        """(columns still needing an IS NOT NULL guard, fact-elided ones).

        The first tuple are term-map columns that may be NULL, less those
        a flat scan's own ``c IS NOT NULL`` conjunct already guards in the
        block's WHERE; the second holds ``(column, fact label)`` pairs for
        guards the declared schema would have emitted but a FactBase fact
        proved unnecessary -- including over UNION sources, which the
        declared schema cannot see through.
        """
        declared = self._declared_nullable(assertion, assertion.referenced_columns())
        still_nullable, labels = self._facts_nullable(assertion, declared)
        guarded = tuple(c for c in declared if c in still_nullable)
        if flat is not None and flat.not_null:
            branch = assertion.source.single
            guarded = tuple(c for c in guarded if branch.base_column(c) not in flat.not_null)
        return (
            guarded,
            tuple((c, labels[c]) for c in declared if c not in still_nullable),
        )

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
                    self._facts.not_null(block.table, base_column)
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

    def _unique_subject(
        self, assertion: MappingAssertion
    ) -> Optional[Tuple[Tuple[str, ...], Optional[str]]]:
        """(key columns, licensing fact label) when the subject template
        columns contain a key of the (single-table) source.

        The label is None when the declared PK already licenses the merge
        (the seed behaviour); a data-derived UniqueFact extends coverage
        and is reported as a fired fact.
        """
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
        fact = self._facts.unique_key_within(branch.table, key_columns - {None})
        if fact is not None:
            return fact.columns, fact.label()
        return None

    def _vfd_scan(
        self,
        assertion: MappingAssertion,
        unique: Optional[Tuple[Tuple[str, ...], Optional[str]]],
    ) -> Optional[_VfdScan]:
        """Set when this scan may share an alias with sibling scans of the
        same table joined on the same subject template.

        Requires a bare identity projection of one table, with every
        non-subject column functionally determined by the subject columns:
        either via a unique key (the classic case, but now merging
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
        return _VfdScan(branch.table, determinants, assertion.source.key, tuple(labels))

    def _parent_key(
        self, assertion: MappingAssertion
    ) -> Optional[Tuple[str, Tuple[str, ...], str]]:
        branch = assertion.source.single
        if branch is None or not branch.plain:
            return None
        key: List[str] = []
        for column in assertion.subject.template.columns:
            base_column = branch.base_column(column)
            if base_column is None:
                return None
            key.append(base_column)
        unique = self._facts.unique_key_within(branch.table, key)
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
            fact = self._facts.covering_fk(
                block.table, child_columns, parent_table, parent_key
            )
            if fact is None:
                return None
            labels.append(fact.label())
        return list(dict.fromkeys(labels))

    # -- BGP unfolding: emit ---------------------------------------------------

    def _emit(
        self, block: _Block, answer_vars: Sequence[sp.Var]
    ) -> Tuple[sql.SelectStatement, Dict[sp.Var, VarMeta]]:
        """The SELECT block of a block that passed every pass, and the
        metadata of its answer variables.

        A source with a flat profile is scanned as its base table, its
        WHERE conjuncts joining the block's and its renamed columns read
        under their base names; any other source stays a derived table,
        without its transparent ``SELECT * FROM (X) sub`` wrappers.
        """
        source: Optional[sql.TableRef] = None
        filters: List[sql.Expr] = []
        renamed: Dict[sql.Expr, sql.Expr] = {}
        profiles = self._profiles  # the merge or guards pass profiled every atom
        for alias, assertion in block.scans:
            flat = profiles[assertion.id].flat
            if flat is None:
                # a VFD-merged alias's members are all bare projections
                assert alias not in block.shared
                table_ref: sql.TableRef = sql.SubquerySource(
                    unwrap(assertion.parsed_source()), alias
                )
            else:
                table_ref = sql.NamedTable(flat.table, alias)
                if flat.filters:
                    filters.extend(self._qualified(assertion, flat, alias))
            source = table_ref if source is None else sql.Join("INNER", source, table_ref)
        # every atom's renames: atoms merged onto one alias read the same
        # source text, but not the same columns
        for assertion, alias in zip(block.combination, block.atom_alias):
            flat = profiles[assertion.id].flat
            if flat is not None:
                for column, base in flat.renames:
                    renamed[sql.ColumnRef(column, alias)] = sql.ColumnRef(base, alias)
        conditions = block.conditions
        if renamed:
            conditions = [sql.replace_expr(c, renamed) for c in conditions]
        # deduplicated after requalifying and renaming: a guard may repeat
        # a source's own conjunct, and a variable bound three times
        # repeats the first-vs-other equality
        where = sql.conjunction(list(dict.fromkeys(filters + conditions)))
        # projection: answer variables present in this CQ
        items: List[sql.SelectItem] = []
        meta: Dict[sp.Var, VarMeta] = {}
        for var in answer_vars:
            if var in block.bindings:
                term_map, alias = block.bindings[var][0]
                expression = _term_map_expression(term_map, alias)
                if renamed:
                    expression = sql.replace_expr(expression, renamed)
                meta[var] = _term_map_meta(term_map)
            else:
                expression = sql.LiteralValue(None)
                meta[var] = VarMeta("iri")
            items.append(sql.SelectItem(expression, var_column(var)))
        if not items:
            items.append(sql.SelectItem(sql.LiteralValue(1), "one"))
        return sql.SelectStatement(items=tuple(items), source=source, where=where), meta

    def _qualified(
        self, assertion: MappingAssertion, flat: _FlatScan, alias: str
    ) -> Tuple[sql.Expr, ...]:
        """*flat*'s WHERE conjuncts with every column ref qualified by
        *alias*, built once per (source, alias)."""
        key = (assertion.source.key, alias)
        filters = self._flat_filters.get(key)
        if filters is None:
            filters = self._flat_filters[key] = tuple(
                sql.replace_expr(
                    conjunct,
                    {ref: sql.ColumnRef(ref.name, alias) for ref in sql.expr_columns(conjunct)},
                )
                for conjunct in flat.filters
            )
        return filters

    # -- joins / unions / filters ----------------------------------------------------

    def _join(self, left: Fragment, right: Fragment) -> Fragment:
        if left.is_empty or right.is_empty:
            return Fragment(None, {**left.var_meta, **right.var_meta})
        return _join_fragments("INNER", left, right)

    def _left_join(
        self,
        left: Fragment,
        right: Fragment,
        condition: Optional[sp.Expression],
    ) -> Fragment:
        meta = {**left.var_meta, **right.var_meta}
        if left.is_empty:
            return Fragment(None, meta)
        if right.is_empty:
            # OPTIONAL over nothing: keep the left side, right vars unbound
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
        return _join_fragments("LEFT", left, right, condition)

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
        predicate = translate_expression(condition, var_exprs)
        pushed = _push_filter(fragment.statement, predicate)
        if pushed is not None:
            return Fragment(pushed, dict(fragment.var_meta))
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
        computed = translate_expression(expression, var_exprs)
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

    # -- query level -----------------------------------------------------------------

    def _apply_query_level(
        self, query: sp.SelectQuery, fragment: Fragment
    ) -> Tuple[Optional[sql.SelectStatement], List[str], List[Optional[VarMeta]]]:
        projections = list(query.projections) or [
            sp.Projection(var) for var in fragment.var_meta
        ]
        columns = [projection.var.name for projection in projections]
        if fragment.is_empty:
            if query.group_by or not query.has_aggregates():
                metas = [fragment.var_meta.get(p.var) for p in projections]
                return None, columns, metas
            # an aggregate without GROUP BY answers one row even over no
            # solutions (COUNT 0): aggregate an empty derived table
            items = tuple(
                sql.SelectItem(sql.LiteralValue(None), var_column(var))
                for var in fragment.var_meta
            ) or (sql.SelectItem(sql.LiteralValue(1), "one"),)
            fragment = Fragment(
                sql.SelectStatement(
                    items=items, source=None, where=sql.LiteralValue(False)
                ),
                fragment.var_meta,
            )
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
# BGP unfolding: the passes that need no unfolder state, and emit
# ---------------------------------------------------------------------------


def _scan_per_atom(block: _Block) -> _Block:
    """Give every atom its own alias (no scan merging)."""
    for assertion in block.combination:
        block.new_scan(assertion)
    return block


def _merge_key(
    atom: Atom, assertion: MappingAssertion, profile: _AssertionProfile
) -> Optional[Tuple]:
    """Key under which this atom's scan may share an alias.

    Self-join sharing is sound when the subject columns are a unique key
    of the (single-table) source, so that equal subjects imply equal rows.
    VFD keys ignore the source text: scans of the same table joined on
    the same subject template may share one alias even across different
    projections.
    """
    subject = atom.terms()[0]
    if not isinstance(subject, sp.Var):
        return None
    if profile.vfd is not None:
        return (
            subject,
            "vfd",
            profile.vfd.table,
            profile.vfd.determinants,
            assertion.subject.template.pattern,
        )
    if profile.unique is not None:
        return (subject, assertion.source.key, assertion.subject.template.pattern)
    return None


def _flat_source(source: MappingSource) -> Optional[_FlatScan]:
    """Set when a block may scan *source* as its base table.

    The source must select and project one table: no select-list
    expression, no modifier but WHERE, no subquery in a conjunct (its
    refs could not be requalified) and every qualified ref naming the
    source's own binding.  UNIONs, joins, DISTINCT, GROUP BY and LIMIT
    stay derived tables.
    """
    branch = source.single
    if branch is None or branch.expressions or not branch.modifiers <= {"WHERE"}:
        return None
    filters: List[sql.Expr] = []
    if branch.filters:
        binding = unwrap(source.statement).source.binding
        for conjunct in branch.filters:
            bare: Dict[sql.Expr, sql.Expr] = {}
            for node in sql.walk_expr(conjunct):
                if isinstance(node, (sql.InSubquery, sql.ExistsSubquery)):
                    return None
                if isinstance(node, sql.ColumnRef):
                    if node.qualifier is not None and node.qualifier.lower() != binding:
                        return None
                    bare[node] = sql.ColumnRef(node.name.lower())
            filters.append(sql.replace_expr(conjunct, bare))
    not_null = frozenset(
        conjunct.operand.name
        for conjunct in filters
        if isinstance(conjunct, sql.IsNull)
        and conjunct.negated
        and isinstance(conjunct.operand, sql.ColumnRef)
    )
    return _FlatScan(branch.table, tuple(filters), not_null, ())


def _bind_terms(block: _Block) -> Optional[_Block]:
    """Bind each CQ term occurrence to a (term map, alias); a constant
    becomes a condition, and None when its term map cannot produce it."""
    for atom, assertion, alias in zip(
        block.cq.atoms, block.combination, block.atom_alias
    ):
        for term, term_map in _atom_bindings(atom, assertion):
            if isinstance(term, sp.Var):
                block.bindings.setdefault(term, []).append((term_map, alias))
                continue
            constraint = _constant_constraint(term, term_map, alias)
            if constraint is None:
                return None
            block.conditions.extend(constraint)
    return block


def _join_equalities(block: _Block) -> Optional[_Block]:
    """Join conditions between the occurrences of each variable; None
    when two of them can never produce the same term.

    Atoms merged onto one alias yield a reflexive ``A.c = A.c``, which
    holds exactly when ``A.c`` is not NULL and is left to the guards.
    """
    for occurrences in block.bindings.values():
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
                    block.conditions.append(conjunct)
                else:
                    block.reflexive[key] = None
    return block


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _join_fragments(
    kind: str,
    left: Fragment,
    right: Fragment,
    condition: Optional[sp.Expression] = None,
) -> Fragment:
    """``lj kind JOIN rj`` on the shared variables (and *condition*),
    projecting every variable once, the left side's first."""
    assert left.statement is not None and right.statement is not None
    conjuncts: List[sql.Expr] = [
        sql.BinaryOp(
            "=",
            sql.ColumnRef(var_column(var), "lj"),
            sql.ColumnRef(var_column(var), "rj"),
        )
        for var in left.var_meta
        if var in right.var_meta
    ]
    var_exprs: Dict[sp.Var, sql.Expr] = {
        var: sql.ColumnRef(var_column(var), "lj") for var in left.var_meta
    }
    items = [sql.SelectItem(expr, var_column(var)) for var, expr in var_exprs.items()]
    meta: Dict[sp.Var, VarMeta] = dict(left.var_meta)
    for var, var_meta in right.var_meta.items():
        if var in meta:
            meta[var] = meta[var].merge(var_meta)
            continue
        var_exprs[var] = sql.ColumnRef(var_column(var), "rj")
        items.append(sql.SelectItem(var_exprs[var], var_column(var)))
        meta[var] = var_meta
    if condition is not None:
        conjuncts.append(translate_expression(condition, var_exprs))
    join_condition = sql.conjunction(conjuncts)
    if kind == "LEFT" and join_condition is None:
        join_condition = sql.LiteralValue(True)
    join = sql.Join(
        kind,
        sql.SubquerySource(left.statement, "lj"),
        sql.SubquerySource(right.statement, "rj"),
        join_condition,
    )
    return Fragment(sql.SelectStatement(items=tuple(items), source=join), meta)


def _chain_union(
    statements: List[sql.SelectStatement], dedup: bool
) -> sql.SelectStatement:
    """Right-fold SELECT blocks into a UNION [ALL] chain."""
    result = statements[-1]
    for statement in reversed(statements[:-1]):
        result = replace(statement, union=sql.UnionTail(result, all=not dedup))
    return result


def _push_filter(
    statement: sql.SelectStatement, predicate: sql.Expr
) -> Optional[sql.SelectStatement]:
    """AND *predicate* into the WHERE of every block of a UNION chain.

    *predicate* reads the chain's output columns (``fq.v_x``); in each
    block they are replaced with the block's select expression for
    ``v_x``.  A filter commutes with UNION [ALL] and DISTINCT, and a
    block's WHERE sees its joined rows (above any LEFT JOIN), so the
    chain answers as the ``fq`` wrapper would, but the executors can
    apply the conjunct to one relation before it is joined.  None --
    keep the wrapper -- when a block groups, aggregates, orders or
    limits (the filter must see their output) or the predicate holds a
    subquery.
    """
    if any(
        isinstance(node, (sql.InSubquery, sql.ExistsSubquery))
        for node in sql.walk_expr(predicate)
    ):
        return None
    refs = sql.expr_columns(predicate)
    blocks: List[Tuple[sql.SelectStatement, sql.Expr, Optional[bool]]] = []
    node: Optional[sql.SelectStatement] = statement
    while node is not None:
        if (
            node.group_by
            or node.having is not None
            or node.order_by
            or node.limit is not None
            or node.offset is not None
            or statement_has_aggregates(node)
        ):
            return None
        outputs = {item.output_name: item.expr for item in node.items}
        mapping: Dict[sql.Expr, sql.Expr] = {}
        for ref in refs:
            expression = outputs.get(ref.name)
            if expression is None:
                return None
            mapping[ref] = expression
        conjuncts = sql.split_conjuncts(node.where) + sql.split_conjuncts(
            sql.replace_expr(predicate, mapping)
        )
        tail = node.union
        blocks.append(
            (
                node,
                sql.conjunction(list(dict.fromkeys(conjuncts))),
                tail.all if tail is not None else None,
            )
        )
        node = tail.query if tail is not None else None
    result: Optional[sql.SelectStatement] = None
    for block, where, union_all in reversed(blocks):
        result = replace(
            block,
            where=where,
            union=None if result is None else sql.UnionTail(result, union_all),
        )
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
        return sql.ColumnRef(term_map.columns[0], alias)
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
                sql.ColumnRef(first.columns[0], first_alias),
                sql.ColumnRef(second.columns[0], second_alias),
            )
        ]
    if isinstance(first, ConstantTermMap):
        return _constant_constraint(first.term, second, second_alias)
    if isinstance(second, ConstantTermMap):
        return _constant_constraint(second.term, first, first_alias)
    # IRI vs literal can never be equal
    return None


def _reflexive_key(conjunct: sql.Expr) -> Optional[Tuple[str, str]]:
    """``(alias, column)`` when *conjunct* is ``A.c = A.c``, else None.

    ``ColumnRef.key`` is a cached property, costly on the fresh refs of
    every join equality, so it is read only for a reflexive one.
    """
    if (
        isinstance(conjunct, sql.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, sql.ColumnRef)
        and isinstance(conjunct.right, sql.ColumnRef)
    ):
        left, right = conjunct.left, conjunct.right
        if (
            left.name.lower() == right.name.lower()
            and (left.qualifier or "").lower() == (right.qualifier or "").lower()
        ):
            return left.key
    return None


def _constant_constraint(
    term: Term, term_map: TermMap, alias: str
) -> Optional[List[sql.Expr]]:
    """Conditions under which *term_map* produces the constant *term*;
    None when it never can."""
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
            sql.ColumnRef(term_map.columns[0], alias),
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
        if expression.name == "COUNT" or expression.argument is None:
            return VarMeta("literal", XSD_INTEGER)
        # MIN, MAX and SUM keep their argument's type; the mean of
        # integers is a decimal (XPath op:numeric-divide)
        argument = _expression_meta(expression.argument, var_meta)
        if expression.name in ("MIN", "MAX"):
            return argument
        if argument.kind != "literal" or (
            expression.name == "AVG" and argument.datatype == XSD_INTEGER
        ):
            return VarMeta("literal", XSD_DECIMAL)
        return argument
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

    return _extend_homomorphism(general, specific, 0, {})


def _extend_homomorphism(
    general: ConjunctiveQuery,
    specific: ConjunctiveQuery,
    index: int,
    mapping: Dict[sp.Var, CqTerm],
) -> bool:
    """Map ``general.atoms[index:]`` into *specific*, extending *mapping*.

    Module-level rather than a self-recursive closure, which would be a
    reference cycle left for the collector on every compile.
    """
    if index == len(general.atoms):
        return True
    atom = general.atoms[index]
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
        if success and _extend_homomorphism(general, specific, index + 1, new_mapping):
            return True
    return False


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
