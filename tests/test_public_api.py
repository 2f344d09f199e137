import ast
import sys
from pathlib import Path

import injhom


def test_public_surface_pinned():
    # a name added to or removed from the package surface shows in this list
    assert sorted(injhom.__all__) == [
        "Contract", "DegreeProfile", "GadgetSpec", "MODES", "Mode", "OrientedGraph",
        "ReductionInstance", "SolveResult", "Target", "UndirectedGraph",
        "automorphisms", "build_ios_collapse", "build_ios_t4", "build_ios_t5",
        "build_iot_collapse", "build_iot_t4", "build_iot_t5", "canonical_form", "catalog",
        "collapse_target", "compose", "decide", "decide_small_target", "degree_profile",
        "digraph", "enumerate_colourings", "enumerate_mod_aut",
        "enumerate_reflexive_tournaments", "errors", "extract_edge_colouring",
        "extract_inner_colouring", "gadgets", "induced_subgraph",
        "is_strongly_connected", "is_vertex_transitive", "lemma_reports", "lift_colouring",
        "load_gadget", "naive", "naive_witnesses", "named_target",
        "parse_graph", "poly", "reductions", "serialize_graph", "serialize_target", "solver",
        "three_edge_colouring_oracle", "verify_colouring", "verify_contract",
        "verify_gadget",
    ]


def test_no_unused_imports_in_package_modules():
    # __init__.py re-exports its imports, so it is left out
    for path in sorted(Path(injhom.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted((line, name) for name, line in imported.items() if name not in used)
        assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_no_assert_statements_in_package_modules():
    # python -O strips assert statements, so a check the package relies on raises
    for path in sorted(Path(injhom.__file__).parent.glob("*.py")):
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_package_imports_only_the_standard_library():
    # the package has no runtime dependency: every absolute import is stdlib
    for path in sorted(Path(injhom.__file__).parent.glob("*.py")):
        modules = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
        outside = sorted(modules - sys.stdlib_module_names)
        assert not outside, f"{path.name}: imports {outside} from outside the standard library"
