"""The spinflux names that the benchmark in ``bench/`` calls.

A change that deletes or renames one of them breaks the traced benchmark;
these tests say so in milliseconds, without running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from spinflux.bath import BathSpec
from spinflux.chain import ChainSpec
from spinflux.dissipators import VARIANTS, Generator

BENCH = Path(__file__).resolve().parents[1] / "bench"


def unresolved(pairs):
    return [f"{module}.{attr}" for module, attr in sorted(set(pairs))
            if not hasattr(importlib.import_module(module), attr)]


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [(module, attr) for module, attr, _, _ in tracing.FUNCTIONS]
    assert pairs
    assert unresolved(pairs) == []


def test_workload_references_resolve():
    # every ``module.name`` that bench/workloads.py reads from a spinflux
    # module it imports by ``from spinflux import ...``
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: f"spinflux.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "spinflux"
               for alias in node.names}
    pairs = [(modules[node.value.id], node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules]
    assert pairs
    assert unresolved(pairs) == []


def test_generator_attributes_resolve():
    # every ``gen.<attr>`` or ``g.<attr>`` that a bench script reads must
    # exist on a generator of every variant
    attrs = {node.attr for path in BENCH.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in ("gen", "g")}
    assert {"hamiltonian", "lindblad_terms", "redfield_parts"} <= attrs
    chain = ChainSpec(n=3, field=1.0, exchange=0.01)
    baths = (BathSpec(beta=0.41, coupling=0.01, side="left"),
             BathSpec(beta=1.39, coupling=0.01, side="right"))
    for variant in VARIANTS:
        gen = Generator(variant, chain, *baths)
        assert sorted(a for a in attrs if not hasattr(gen, a)) == [], variant
