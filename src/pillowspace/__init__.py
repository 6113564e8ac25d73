"""Exact combinatorics and metric-measure experiments on the doubled-center
triadic substitution complex.

Imports are lazy (PEP 562): `import pillowspace` loads no submodule and no
numpy.  An exported name such as `pillowspace.build_graph`, or a submodule
such as `pillowspace.graphs`, loads its module on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "words": (
        "ALPHABET",
        "CENTER_LETTERS",
        "GRID_LETTERS",
        "Letter",
        "LETTERS",
        "ParseError",
        "TriadicSquare",
        "all_words",
        "flip",
        "grid_word_of_square",
        "letter_at",
        "parse_word",
        "project_word",
        "section",
        "word_square",
    ),
    "graphs": (
        "CapacityError",
        "HORIZONTAL",
        "ReplacementGraph",
        "SEAM",
        "VERTICAL",
        "adjacency",
        "ball",
        "boundary_face",
        "build_graph",
        "chain_oracle_adjacency",
        "distance",
        "flip_permutation",
        "is_automorphism",
        "prefix_subgraph",
        "read_graph",
        "read_graph_binary",
        "read_graph_json",
        "write_graph_binary",
        "write_graph_json",
    ),
    "measures": (
        "DimensionFit",
        "DoublingReport",
        "IntervalWeights",
        "RatioRow",
        "TileMeasure",
        "ball_dimension_estimate",
        "box_dimension_estimate",
        "middle_third_ratios",
        "pushforward_x",
        "tile_doubling_check",
    ),
    "modulus": (
        "ModulusProblem",
        "ModulusResult",
        "Network",
        "ScanRow",
        "ScanTable",
        "conformal_scan",
        "effective_conductance",
        "grid_network",
        "mincut_oracle",
        "parallel_network",
        "path_network",
        "solve_modulus",
    ),
    "metrics": (
        "CoverReport",
        "DistortionProfile",
        "MetricMatrix",
        "PIDiagnostic",
        "QuotientReport",
        "blowup_metric",
        "cover_preimage",
        "graph_metric",
        "internal_block_metric",
        "lipschitz_quotient_check",
        "pi_diagnostic",
        "qs_distortion",
        "read_metric_matrix",
        "symmetrize",
        "write_metric_matrix",
    ),
}
_SUBMODULES = ("cli", "graphs", "measures", "metrics", "modulus", "verify", "words")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
