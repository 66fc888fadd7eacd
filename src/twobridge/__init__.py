"""Boundary slopes of 2-bridge links, computed exactly.

The library enumerates the minimal edge paths in a deformed Farey
diagram that index the spanning surfaces of a 2-bridge link, computes
each surface's boundary-slope pair by two independent algorithms, and
reproduces the classical slope tables through ten crossings.
"""

from .arith import (ContFrac, Frac, GMat, INFINITY, TwoBridgeLink,
                    canonical_rep, cf_positive, crossing_number,
                    enumerate_links, linking_number, make_link, rolfsen_name)
from .diagram import (Corner, Diagrams, Edge, Quad, TypedPath, build_diagram,
                      collapse, minimal_paths, quad_chain)
from .slopes import (LinkSlopes, MForm, SForm, SlopeFamily, SymbolicM, m_form,
                     m_form_edgewise, s_form, s_form_symbolic, slope_families,
                     to_preferred)
from .tables import TableReport, emit, render_family, verify_corpus

__version__ = "0.1.0"
