"""Enumerate XOR-AND circuit topologies up to equivalence, evaluate and
rewrite circuits, and combine exact class counts with counting bounds.

A public name is looked up in its submodule on first use (PEP 562), so
``import mcbound`` loads no submodule and a command loads only those it
needs."""

import importlib

__version__ = "0.1.0"

# Each public name, mapped to the submodule that defines it.
_SUBMODULE = {name: module for module, names in (
    ("bounds", "BoundReport all_circuits_bound b_n_size circuits_per_topology "
               "negnormal_circuit_bound negnormal_circuits_per_topology pigeonhole_report "
               "raw_topology_count refined_bound render_report"),
    ("circuits", "TOP Circuit Term TruthTable evaluate format_circuit format_truth_table g "
                 "is_negation_normal minimalize_circuit negation_normalize "
                 "normalize_circuit_layering parse_circuit parse_truth_table topology_of "
                 "truth_table x"),
    ("errors", "CapacityError CircuitError ContractError ParseError"),
    ("oracle", "FunctionSet brute_equiv_classes enumerate_raw_topologies "
               "exhaustive_function_set literal_equivalent verify_completeness_small"),
    ("topology", "MAX_GENERATE_K Layering Topology TopologySet canonical_form count_classes "
                 "format_topology format_topology_set generate is_minimal is_well_layered "
                 "layering load_topology_set mask_indices parse_topology parse_topology_set "
                 "save_topology_set"),
) for name in names.split()}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
