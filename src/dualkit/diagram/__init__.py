from .corpus import list_traces, load_all, load_trace, validate_corpus
from .diagram import (BRAID, CAP, CUP, GEN, GEN_INV, Cell, Diagram,
                      TypingError, cell_diagram, compose, identity_diagram,
                      tensor)
from .evaluate import EvaluationError, Interpretation, evaluate
from .graph import (NormalForm, OpenGraph, diagram_to_open_graph,
                    normalize_symmetric)
from .rewrite import (BUILTIN_RULES, BWD, FWD, RewriteError, RewriteRule,
                      RewriteTrace, Step, TraceReport, apply_rule,
                      validate_trace)
from .signature import (GenType, Letter, Signature, dual_letter, signature,
                        word, word_str)

__all__ = [
    "list_traces", "load_all", "load_trace", "validate_corpus",
    "BRAID", "CAP", "CUP", "GEN", "GEN_INV", "Cell", "Diagram",
    "TypingError", "cell_diagram", "compose", "identity_diagram", "tensor",
    "EvaluationError", "Interpretation", "evaluate",
    "NormalForm", "OpenGraph", "diagram_to_open_graph", "normalize_symmetric",
    "BUILTIN_RULES", "BWD", "FWD", "RewriteError", "RewriteRule",
    "RewriteTrace", "Step", "TraceReport", "apply_rule", "validate_trace",
    "GenType", "Letter", "Signature", "dual_letter", "signature", "word",
    "word_str",
]
