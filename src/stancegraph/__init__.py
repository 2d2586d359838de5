"""Schema-guided zero-shot stance detection.

Pipeline: LLM-elicited first-order-logic rationales are parsed into instance
graphs; predicates are clustered into a concept-level schema graph; small
schema subgraphs become learnable random-walk graph-kernel filters; a
multi-layer kernel model with a softmax head predicts stance.
"""

from .config import RunConfig
from .fol import (FolGraph, Predicate, Relation, build_fol_graph, format_expr,
                  parse_fol_line)
from .embed import make_provider, test_embed
from .gateway import Gateway, render_p1, render_p2
from .induce import (induce_library, kmeans, load_library, save_library,
                     select_k, silhouette)
from .kernel import (augment_graph, backward, build_model, forward,
                     load_checkpoint, prepare, save_checkpoint)
from .train import AdamW, evaluate, load_dataset, macro_f1

__all__ = [
    "RunConfig", "FolGraph", "Predicate", "Relation", "build_fol_graph",
    "format_expr", "parse_fol_line", "make_provider", "test_embed", "Gateway",
    "render_p1", "render_p2", "induce_library", "kmeans", "load_library",
    "save_library", "select_k", "silhouette", "augment_graph", "backward",
    "build_model", "forward", "load_checkpoint", "prepare", "save_checkpoint",
    "AdamW", "evaluate", "load_dataset", "macro_f1",
]

__version__ = "0.1.0"
