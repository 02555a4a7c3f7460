"""Enumerate XOR-AND circuit topologies up to equivalence, evaluate and
rewrite circuits, and combine exact class counts with counting bounds."""

from .bounds import (BoundReport, all_circuits_bound, b_n_size, circuits_per_topology,
                     negnormal_circuit_bound, negnormal_circuits_per_topology,
                     pigeonhole_report, raw_topology_count, refined_bound,
                     render_report)
from .circuits import (TOP, Circuit, Term, TruthTable, evaluate, format_circuit,
                       format_truth_table, g, is_negation_normal, minimalize_circuit,
                       negation_normalize, normalize_circuit_layering, parse_circuit,
                       parse_truth_table, topology_of, truth_table, x)
from .errors import CapacityError, CircuitError, ContractError, ParseError
from .oracle import (FunctionSet, brute_equiv_classes, enumerate_raw_topologies,
                     exhaustive_function_set, literal_equivalent,
                     verify_completeness_small)
from .topology import (MAX_GENERATE_K, Layering, Topology, TopologySet,
                       canonical_form, count_classes, format_topology,
                       format_topology_set, generate, is_minimal, is_well_layered,
                       layering, load_topology_set, mask_indices, parse_topology,
                       parse_topology_set, save_topology_set)

__version__ = "0.1.0"
