"""Stable-model semantics for propositional logic programs with constraint atoms."""

from .abstraction import (
    AbstractCAtom,
    CAtomClass,
    Disjunct,
    Dnf,
    PrefixedPowerSet,
    abstract_of,
    abstract_satisfiable_sets,
    build_abstract,
    classify_catom,
    dnf,
    expand,
    is_maximally_simplified,
    satisfiable_sets,
    satisfies_abstract,
    simplified_dnf,
)
from .analysis import (
    CycleReport,
    DependencyGraph,
    check_dependency_theorem,
    cycle_report,
    dependency_graph,
    format_translation,
    normalize_basic,
    to_dot,
    translate_normal,
)
from .core import (
    CAtom,
    FALSE_CATOM,
    Literal,
    Program,
    ProgramClass,
    Rule,
    candidate_models,
    classify_program,
    complement,
    is_minimal_model,
    is_model,
    is_reserved,
    is_supported_model,
    iter_subsets,
    literal_catom,
    satisfies_catom,
    satisfies_rule,
)
from .errors import (
    CatlpError,
    GuardError,
    InvariantError,
    NameCollisionError,
    NotAModelError,
    ParseError,
    ProgramClassError,
)
from .fixpoint import (
    cond_satisfies,
    cond_satisfies_abstract,
    fixpoint_stable,
    fixpoint_stable_models,
    to_positive_basic,
    tp_step,
)
from .parser import (
    eliminate_negated_catoms,
    format_program,
    format_rule,
    load_program,
    parse,
    parse_constraint,
    desugar_aggregate,
    desugar_weight,
)
from .reduct import (
    ReductProgram,
    beta_atom,
    gl_reduct,
    is_stable,
    least_model,
    minimal_models,
    reduct_size_bound,
    stable_models,
    theta_atom,
)

__version__ = "0.1.0"
