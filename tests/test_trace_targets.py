"""Every function the traced benchmark run wraps stays bound.

``perfbench/tracing.py`` replaces each traced function by
``getattr``/``setattr`` on a module attribute such as
``tbdag.belief:build_game``.  A refactor that unbinds one of those names
breaks the traced run; these tests catch it without installing any
wrapper.  A name that stays bound but is no longer called is caught by
reading the module's source.  The names the package exports are
checked the same way.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import tbdag
import tbdag.belief
import tbdag.dag
from tbdag import generate, list_presets, make_belief_game

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    name = "_perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while being defined.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = [target for t in tracing.TRACED for target in t.targets]
    assert targets
    for target in targets:
        owner, attr = tracing._owner(target)
        assert callable(getattr(owner, attr)), target


# Bound but not called in its module: ``tbdag.belief`` builds through
# ``build_tbdag``, which splits through ``tbdag.build``'s own name.
UNCALLED = {"tbdag.belief:split_observation"}


def test_every_traced_module_name_is_called(monkeypatch):
    # A module-level target only sees calls made through that module's
    # name, so the module must load the name somewhere besides its import.
    tracing = load_tracing(monkeypatch)
    for t in tracing.TRACED:
        for target in t.targets:
            module, _, name = target.partition(":")
            if module == "tbdag" or "." in name or target in UNCALLED:
                continue
            tree = ast.parse(
                Path(importlib.import_module(module).__file__).read_text()
            )
            loaded = {
                node.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            assert name in loaded, target


def test_every_export_resolves():
    for module in (tbdag, tbdag.dag):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_imports_only_the_standard_library_and_numpy():
    # SciPy may be installed where the tests run, so an import of it
    # would pass every other test; the package declares only NumPy.
    src = Path(tbdag.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, (path.name, name)


def test_belief_game_is_assembled_through_its_module_name(monkeypatch):
    calls = []
    real = tbdag.belief.build_game

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(tbdag.belief, "build_game", counted)
    make_belief_game(generate(list_presets()["fig2"]))
    assert calls == [1]
