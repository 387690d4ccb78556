"""The package's public surface: ``skein.__all__``."""

import ast
from pathlib import Path

import skein

BENCH = Path(__file__).resolve().parent.parent / "skeinbench"


def test_every_exported_name_resolves_once():
    missing = [name for name in skein.__all__ if not hasattr(skein, name)]
    assert missing == []
    assert len(set(skein.__all__)) == len(skein.__all__)


def test_the_per_criterion_check_functions_are_gone():
    # one criterion's verdict is full_report(...).outcome(test_id)
    for name in ("check_palindrome", "check_free_symmetry", "check_vertex_fixing",
                 "check_periodic_link_style"):
        assert not hasattr(skein, name)
        assert not hasattr(skein.symmetry, name)


def test_every_name_the_benchmark_reads_resolves():
    # skeinbench/ is read as source, not imported: run.py imports skein
    # from its own checkout and workloads.py needs skeinbench/ on the path
    names = set()
    for file in ("workloads.py", "run.py"):
        tree = ast.parse((BENCH / file).read_text(), filename=file)
        names |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("lib", "api", "skein")
        }
    assert {"parse_diagram", "yamada", "bracket", "phi_plane", "backend_name"} <= names
    assert [name for name in sorted(names) if not hasattr(skein, name)] == []


def test_rational_function_is_the_localized_ring():
    assert skein.RationalFunction is skein.LocalizedElement
    assert "RationalFunction" in skein.__all__
