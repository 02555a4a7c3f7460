"""The package namespace, the CLI's import closure and the named-tuple
value types."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import mcbound
from mcbound.bounds import pigeonhole_report
from mcbound.circuits import TOP, Circuit, Term, TruthTable, g, x
from mcbound.errors import CircuitError
from mcbound.topology import Layering, Topology, layering

PUBLIC_NAMES = {
    "BoundReport", "CapacityError", "Circuit", "CircuitError", "ContractError", "FunctionSet",
    "Layering", "MAX_GENERATE_K", "ParseError", "TOP", "Term", "Topology", "TopologySet",
    "TruthTable", "all_circuits_bound", "b_n_size", "brute_equiv_classes", "canonical_form",
    "circuits_per_topology", "count_classes", "enumerate_raw_topologies", "evaluate",
    "exhaustive_function_set", "format_circuit", "format_topology", "format_topology_set",
    "format_truth_table", "g", "generate", "is_minimal", "is_negation_normal",
    "is_well_layered", "layering", "literal_equivalent", "load_topology_set",
    "mask_indices", "minimalize_circuit", "negation_normalize", "negnormal_circuit_bound",
    "negnormal_circuits_per_topology", "normalize_circuit_layering", "parse_circuit",
    "parse_topology", "parse_topology_set", "parse_truth_table", "pigeonhole_report",
    "raw_topology_count", "refined_bound", "render_report", "save_topology_set",
    "topology_of", "truth_table", "verify_completeness_small", "x",
}


def fresh(script):
    """The standard output of ``script`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(mcbound.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return done.stdout


# the modules that hold the class walk and the pure-Python kernel
WALK = "loaded = lambda: sorted({'mcbound.topology', 'mcbound._gen_py'} & set(sys.modules))\n"


def test_cli_imports_neither_circuits_nor_oracle():
    script = ("import sys, mcbound.cli, mcbound.kernel as k\n"
              "k.BACKEND\n"
              "print(sorted({'mcbound.circuits', 'mcbound.oracle', 'mcbound.randgen',\n"
              "              'dataclasses', 'mcbound.topology', 'mcbound._gen_py'}\n"
              "             & set(sys.modules)))\n")
    assert fresh(script) == "[]\n"


def test_circuits_load_no_dataclasses():
    # Circuit and TruthTable are named tuples, so eval does without the
    # dataclasses module and the inspect module it imports.
    script = ("import sys, mcbound.circuits\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    assert fresh(script) == "[]\n"


PROVE_K6_REPORT = """\
n = 7
k = 6
topology_classes = 555709
all_circuits_bound = 1393796574908163946345982392040522594123776
raw_topology_count = 1073741824
circuits_per_topology = 1298074214633706907132624082305024
negnormal_circuits_per_topology = 231029321891594808422774159179776
negnormal_circuit_bound = 248065845485364139864800088817759026151424
refined_bound = 128385073439056259393811405223634141184
|B_n| = 340282366920938463463374607431768211456
verdict: M(7) >= 7: true
"""


def test_prove_with_classes_loads_no_walk_and_a_count_loads_it():
    script = ("import sys\n"
              "from mcbound.cli import main\n" + WALK +
              "print(main(['prove', '--n', '7', '--k', '6', '--classes', '555709']), loaded())\n"
              "print(main(['prove', '--n', '7', '--k', '5']), loaded())\n")
    out = fresh(script)
    assert out.startswith(PROVE_K6_REPORT + "0 []\n")
    lines = out.removeprefix(PROVE_K6_REPORT).splitlines()
    assert "topology_classes = 3282" in lines and "verdict: M(7) >= 6: true" in lines
    assert lines[-1] == "0 ['mcbound._gen_py', 'mcbound.topology']"


def test_backend_is_the_default_kernels_and_is_known_before_it_loads():
    script = ("import sys, mcbound.kernel as k\n" + WALK +
              "print(k.BACKEND, loaded())\n"
              "print(k.get_backend().BACKEND)\n")
    lines = fresh(script).splitlines()
    assert lines == [f"{lines[-1]} []", lines[-1]]


def test_a_cli_name_patched_before_the_first_command_holds():
    script = ("import sys, mcbound.cli as cli\n"
              "cli.count_classes = lambda k, **kw: print('patched', k) or 3282\n"
              "code = cli.main(['prove', '--n', '7', '--k', '5'])\n"
              "import mcbound.topology as t\n"
              "print(code, cli.generate is t.generate, cli.count_classes is t.count_classes)\n")
    lines = fresh(script).splitlines()
    assert lines[0] == "patched 5" and "topology_classes = 3282" in lines
    assert lines[-1] == "0 True False"


def test_namespace_resolves_each_public_name():
    assert len(PUBLIC_NAMES) == 54
    assert set(dir(mcbound)) == set(mcbound.__all__) == PUBLIC_NAMES | {"__version__"}
    star = {}
    exec("from mcbound import *", star)
    del star["__builtins__"]
    assert set(star) == PUBLIC_NAMES | {"__version__"}
    assert star["Topology"] is Topology and star["pigeonhole_report"] is pigeonhole_report
    with pytest.raises(AttributeError, match="no_such_name"):
        mcbound.no_such_name


TOPOLOGY = Topology(3, ((0, 0), (1, 0), (1, 2)))
VALUES = [
    (TOPOLOGY, "Topology(k=3, gates=((0, 0), (1, 0), (1, 2)))"),
    (layering(TOPOLOGY), "Layering(layers=(1, 2, 4))"),
    (pigeonhole_report(2, 1, 1),
     "BoundReport(n=2, k=1, topology_classes=1, all_circuits=1024, raw_topologies=1, "
     "per_topology=1024, negnormal_per_topology=768, negnormal_circuits=768, refined=768, "
     "b_n=16, verdict=False)"),
    (Circuit(2, ((frozenset({x(1)}), frozenset({TOP})),), frozenset({g(1)})),
     "Circuit(n=2, gates=((frozenset({Term(kind='x', idx=1)}), frozenset({Term(kind='T', "
     "idx=0)})),), output=frozenset({Term(kind='g', idx=1)}))"),
    (TruthTable(2, 6), "TruthTable(n=2, bits=6)"),
]


@pytest.mark.parametrize("value, text", VALUES)
def test_value_types(value, text):
    cls = type(value)
    assert repr(value) == text
    # The repr spells each field as a keyword argument.
    built = eval(text, {cls.__name__: cls, "Term": Term})
    assert type(built) is cls and built == value and hash(built) == hash(value)
    with pytest.raises(AttributeError):
        setattr(value, text[len(cls.__name__) + 1:].split("=")[0], 0)
    with pytest.raises(AttributeError):
        value.other = 0
    for back in (copy.copy(value), copy.deepcopy(value),
                 *(pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(back) is cls and back == value and repr(back) == text


def test_named_tuple_helpers_check_topologies():
    k, gates = TOPOLOGY
    assert TOPOLOGY == (k, gates) and Topology(k=k, gates=gates) == TOPOLOGY
    assert TOPOLOGY._replace(gates=((0, 0), (1, 0), (True, 2))).gates[2] == (1, 2)
    assert Layering(layers=(1, 6)).sizes == (1, 2)
    with pytest.raises(CircuitError, match="gate 2 may only reference gates 1..1"):
        TOPOLOGY._replace(gates=((0, 0), (2, 0), (1, 2)))
    with pytest.raises(CircuitError, match="topology k must be an int"):
        Topology._make((3.0, TOPOLOGY.gates))


def test_named_tuple_helpers_check_circuits():
    c = VALUES[3][0]
    assert c == (c.n, c.gates, c.output) and hash(c) == hash((c.n, c.gates, c.output))
    assert c._replace(output=[x(2)]).output == frozenset({x(2)})
    with pytest.raises(CircuitError, match="gate g1 referenced before it is defined"):
        c._replace(gates=((frozenset({g(1)}), frozenset()),))
    with pytest.raises(CircuitError, match="arity must be an int"):
        Circuit._make((2.0, c.gates, c.output))
    with pytest.raises(CircuitError, match="truth table needs exactly 4 bits"):
        VALUES[4][0]._replace(bits=16)


def test_unpickling_checks_circuits():
    # tuple.__new__ skips the checks, so this gate 1 references itself.
    bad = tuple.__new__(Circuit, (2, ((frozenset({g(1)}), frozenset()),), frozenset()))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(bad, protocol)
        with pytest.raises(CircuitError, match="gate g1 referenced before it is defined"):
            pickle.loads(data)
    with pytest.raises(CircuitError):
        copy.copy(bad)
    with pytest.raises(CircuitError, match="truth table needs exactly 4 bits"):
        copy.copy(tuple.__new__(TruthTable, (2, 16)))


def test_unpickling_checks_the_gates():
    # tuple.__new__ skips Topology's checks, so this gate 1 references gate 2.
    bad = tuple.__new__(Topology, (2, ((2, 0), (0, 0))))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(bad, protocol)
        with pytest.raises(CircuitError, match="gate 1 may only reference gates 1..0"):
            pickle.loads(data)
    with pytest.raises(CircuitError):
        copy.copy(bad)
