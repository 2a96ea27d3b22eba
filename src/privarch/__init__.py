"""Workbench for privacy-by-design message-passing architectures.

Model agents, typed channels, and constructor holdings; check traces against
possession and send constraints; synthesize certified or proof-carrying safe
extensions; verify the safety-theorem premises for a partition; and search
the bounded knowledge-state space for counterexamples and witnesses.
"""

from .architecture import (
    AgentId,
    Architecture,
    ArchitectureError,
    INTERFACE,
    InvalidArchitecture,
    ORIGINAL,
    OUTPUT,
    UnknownAgent,
    VerdictReport,
    Violation,
    can_compute,
    validate_architecture,
)
from .constraints import (
    ComplianceVerdict,
    Constraint,
    ConstraintError,
    LocalSend,
    NegCreate,
    NegPossess,
    Positive,
    TraceComplianceReport,
    check_local,
    check_neg_create,
    check_neg_possess,
    check_positive,
    check_trace_compliance,
)
from .dsl import (
    DslError,
    ParseError,
    ResolveError,
    SpecDocument,
    parse_grants,
    parse_partition,
    parse_spec,
    parse_term,
    parse_trace,
    parse_type,
    print_grants,
    print_partition,
    print_spec,
    print_trace,
)
from .dot import dot_counts, export_dot
from .explorer import (
    ExplorerError,
    ReconstructionFailure,
    SearchOutcome,
    default_budget,
    explore,
    reconstruct_trace,
)
from .semantics import (
    Decomposition,
    Event,
    EventTypeError,
    InvalidTraceError,
    KnowledgeState,
    NotDerivable,
    Trace,
    TraceCheck,
    TraceError,
    check_trace_valid,
    derives,
    generation_decompose,
    possession_closure,
)
from .synthesis import (
    CapacityExceeded,
    ConstraintOutOfScope,
    Grant,
    NotAnInterfacePair,
    SafeArchitecture,
    SynthesisConfig,
    SynthesisError,
    SynthesizedFrom,
    build_safe_architecture_v1,
    build_safe_architecture_v2,
    build_safe_type_system_v1,
    build_safe_type_system_v2,
    relax_with_local_constraints,
)
from .terms import (
    App,
    Arrow,
    AtomicType,
    Base,
    CalculusError,
    Certified,
    Con,
    ConstructorDecl,
    MalformedSignature,
    Proof,
    TermExpr,
    TypeExpr,
    TypeMismatch,
    TypeSystem,
    UnknownConstructor,
    apply,
    infer_type,
    make_signature,
    signature_parts,
    subterms,
    term_size,
    term_to_str,
    type_name,
    type_sort_key,
    uncurry,
)
from .verifier import (
    Partition,
    canonical_partition,
    proof_maker_form,
    unwrapper_form,
    verify_partition_v1,
    verify_partition_v2,
)

__version__ = "0.1.0"
