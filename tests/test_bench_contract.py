"""The spinflux names that the benchmark in ``bench/`` calls.

A change that deletes or renames one of them breaks the traced benchmark;
these tests say so in milliseconds, without running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from spinflux.bath import BathSpec
from spinflux.chain import ChainSpec
from spinflux.dissipators import VARIANTS, Generator
from spinflux.liouville import assemble

BENCH = Path(__file__).resolve().parents[1] / "bench"
CHAIN = ChainSpec(n=3, field=1.0, exchange=0.01)
BATHS = (BathSpec(beta=0.41, coupling=0.01, side="left"),
         BathSpec(beta=1.39, coupling=0.01, side="right"))


def unresolved(pairs):
    return [f"{module}.{attr}" for module, attr in sorted(set(pairs))
            if not hasattr(importlib.import_module(module), attr)]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    pairs = [(module, attr) for module, attr, _, _ in load_tracing().FUNCTIONS]
    assert pairs
    assert unresolved(pairs) == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_assemble_counts_read_the_derived_matrix(variant):
    # the traced benchmark counts a Liouvillian's non-zeros and dense bytes
    # from ``matrix``, which derives from ``sparse``
    s = assemble(Generator(variant, CHAIN, *BATHS))
    d = s.dim
    assert load_tracing()._assemble_counts({}, s) == {"nnz": s.sparse.nnz,
                                                      "bytes": 16 * d ** 4}


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
    for variant in VARIANTS:
        gen = Generator(variant, CHAIN, *BATHS)
        assert sorted(a for a in attrs if not hasattr(gen, a)) == [], variant
