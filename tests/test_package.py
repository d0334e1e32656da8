"""The package namespace: ``obskit.__all__`` lists exactly its public names,
and each of them is run by a scenario's code or kept for a named ROADMAP item."""

import ast
import inspect
import types
from pathlib import Path

import obskit


def test_every_listed_name_resolves():
    assert len(obskit.__all__) == len(set(obskit.__all__))
    missing = [name for name in obskit.__all__ if not hasattr(obskit, name)]
    assert missing == []


def test_every_public_name_is_listed():
    public = {
        name
        for name, value in vars(obskit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(obskit.__all__) == set()


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from obskit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(obskit.__all__)


# Exported functions and classes that no module under src/ runs yet, each
# with the open ROADMAP item that will run it.  Everything else the package
# exports is referred to by src/ code outside ``__init__.py``; a probe that
# only tests call belongs in tests/oracles.py.  Three exports are kept for
# perfbench, which src/ cannot see: it imports ``obskit.parallel``, and its
# tracer hooks ``build_square_system``, ``kernel_psd_margin`` and
# ``estimate_admissibility(system, epsilon, lambda_grid)`` by name and
# signature (``test_perfbench_hooks_keep_their_names_and_signature``).
UNRUN_KEEP_LIST = {
    "windowed_frequency": "Run the paper's Fourier chain as one scenario",
    "plancherel_lowerbound_check": "Run the paper's Fourier chain as one scenario",
    "observability_integral": "Run the paper's Fourier chain as one scenario",
    "spectral_coercivity_violation_search": (
        "Prove weak observability for every state: the resolvent inequality, bracketed"
    ),
}


def _names_run_by_src() -> set[str]:
    """Every bare name in the src/obskit modules other than ``__init__.py``."""
    names = set()
    for path in Path(obskit.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    return names


def test_every_export_is_run_by_src_or_kept_for_a_named_roadmap_item():
    run = _names_run_by_src()
    unrun = {
        name
        for name in obskit.__all__
        if (inspect.isfunction(getattr(obskit, name)) or inspect.isclass(getattr(obskit, name)))
        and name not in run
    }
    assert unrun == set(UNRUN_KEEP_LIST)


def test_perfbench_hooks_keep_their_names_and_signature():
    import obskit.parallel  # noqa: F401

    assert {"build_square_system", "kernel_psd_margin", "estimate_admissibility"} <= set(obskit.__all__)
    parameters = inspect.signature(obskit.estimate_admissibility).parameters
    assert list(parameters)[:3] == ["system", "epsilon", "lambda_grid"]
