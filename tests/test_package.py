"""The package's public surface: ``skein.__all__``."""

import skein


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
