"""Stable-model semantics for propositional logic programs with constraint atoms."""

from .abstraction import (
    AbstractCAtom,
    CAtomClass,
    PrefixedPowerSet,
    abstract_of,
    build_abstract,
    classify_catom,
    expand,
    satisfiable_sets,
)
from .analysis import (
    CycleReport,
    DependencyGraph,
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
    Rule,
    complement,
    is_model,
    is_reserved,
    literal_catom,
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
    fixpoint_stable,
    fixpoint_stable_models,
    to_positive_basic,
    tp_step,
)
from .parser import (
    format_program,
    format_rule,
    load_program,
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
