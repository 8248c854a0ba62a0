"""oelab: quantitative orbit-equivalence constructions, verified on the desk.

Exact group arithmetic and word metrics, verified Folner tiling sequences,
odometer-style orbit-equivalence couplings with transfer cocycles and
integrability estimators, the lamplighter/Baumslag-Solitar bi-infinite
coupling, ell^p gradient transfer, wreath-product couplings, and Rips
hyperbolicity audits on finite graphs.
"""

__version__ = "0.1.0"

from .errors import (
    DepthExhausted,
    NotApplicable,
    NotInTile,
    ResourceExhausted,
    TilingViolation,
    TruncationError,
    UsageError,
    WindowExhausted,
)
from .groups import (
    ZN,
    BaumslagSolitar,
    CyclicGroup,
    Group,
    Heisenberg,
    Lamplighter,
    group_from_spec,
    parse_element,
)

__all__ = [
    "__version__",
    "DepthExhausted",
    "NotApplicable",
    "NotInTile",
    "ResourceExhausted",
    "TilingViolation",
    "TruncationError",
    "UsageError",
    "WindowExhausted",
    "Group",
    "ZN",
    "Heisenberg",
    "Lamplighter",
    "BaumslagSolitar",
    "CyclicGroup",
    "group_from_spec",
    "parse_element",
]
