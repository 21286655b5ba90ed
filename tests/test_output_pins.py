"""Byte-identity pins for every game the library assembles.

Each pin is the SHA-256 of a canonical JSON dump (sorted keys) of one
output: a serialized zoo game, one side's analysis, a rewritten game,
or a belief game with its strategy-map tables.  A construction that
errors is pinned by its message instead.  A new case is pinned with
``PYTHONPATH=src python3 tests/test_output_pins.py --record``, which
writes only the keys that have no pin yet, and exits non-zero without
writing anything when an existing pin would change.  An output that is
meant to change needs its pin edited by hand.
"""

import dataclasses
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import tbdag.belief
from tbdag import (
    MAX,
    MIN,
    GameValidationError,
    analyze,
    belief_game_to_doc,
    binarize_actions,
    generate,
    inflate,
    list_presets,
    make_belief_game,
    serialize_game,
    solve,
)
from tbdag.analysis import coordinator_view

sys.path.insert(0, str(Path(__file__).parent))
from test_acceptance import SMALL_ZOO  # noqa: E402

PINS_PATH = Path(__file__).parent / "output_pins.json"

ZOO = (*SMALL_ZOO, "3L122[1]", "3L122[2]", "3L122[3]", "3L122[1,2]",
       "3L122[1,3]", "3L122[2,3]")
REWRITE = ("fig2", "2K3", "3K3[1]")
BELIEF = ("fig2", "fig9-C8", "2K3", "3K3[1]", "worst-k1b2d5")


@lru_cache(maxsize=None)
def game(name):
    return generate(list_presets()[name])


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _game_digest(g) -> str:
    return _digest(serialize_game(g))


def _or_error(make):
    try:
        return make()
    except GameValidationError as exc:
        return f"error: {exc}"


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _analysis_digest(name: str, side: str) -> str:
    """Every ``GameAnalysis`` field but the game and the view, with the
    side's coordinator view computed on its own."""
    g = game(name)
    analysis = analyze(g, side)
    out = {
        f.name: _jsonable(getattr(analysis, f.name))
        for f in dataclasses.fields(analysis)
        if f.name not in ("game", "view")
    }
    view = coordinator_view(g, side)
    out["view"] = {
        "infosets": _jsonable(view.infosets),
        "seq_of": _jsonable(view.seq_of),
        "sequences": _jsonable(view.sequences),
    }
    return _digest(out)


def _belief_digest(name: str, compact: bool) -> str:
    def make():
        bg = make_belief_game(game(name), compact=compact)
        return _digest({
            "doc": belief_game_to_doc(bg),
            "iset_beliefs": sorted(bg.iset_beliefs.items()),
            "iset_infosets": sorted(bg.iset_infosets.items()),
            "root_iset": bg.root_iset,
            "successors": sorted(
                [list(key), list(nxt)] for key, nxt in bg.successors.items()
            ),
        })

    return _or_error(make)


def pin_cases():
    """Every pinned output as ``(key, thunk)`` pairs."""
    cases = [(f"zoo/{name}", lambda n=name: _game_digest(game(n)))
             for name in ZOO]
    for name in ZOO:
        for side in (MAX, MIN):
            cases.append((
                f"analysis/{name}/{side}",
                lambda n=name, s=side: _analysis_digest(n, s),
            ))
    for name in REWRITE:
        cases.append((
            f"binarize/{name}",
            lambda n=name: _or_error(
                lambda: _game_digest(binarize_actions(game(n)))
            ),
        ))
        for side in (MAX, MIN):
            cases.append((
                f"inflate/{name}/{side}",
                lambda n=name, s=side: _game_digest(inflate(game(n), s)),
            ))
    for name in BELIEF:
        for compact in (False, True):
            cases.append((
                f"belief/{name}/{'compact' if compact else 'full'}",
                lambda n=name, c=compact: _belief_digest(n, c),
            ))
    return cases


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def test_every_case_is_pinned():
    assert sorted(key for key, _ in pin_cases()) == sorted(PINS)


@pytest.mark.parametrize("key,make", pin_cases(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_output_pinned(key, make):
    assert make() == PINS[key]


@pytest.mark.parametrize("name", ["fig2", "3K3[1]"])
def test_belief_game_splits_no_candidates_itself(monkeypatch, name):
    # Every next belief comes from the raw TB-DAGs, so the belief module
    # never needs its own observation split.
    def split(*args, **kwargs):
        raise AssertionError("tbdag.belief called split_observation")

    monkeypatch.setattr(tbdag.belief, "split_observation", split)
    for compact in (False, True):
        key = f"belief/{name}/{'compact' if compact else 'full'}"
        assert _belief_digest(name, compact) == PINS[key]


def test_solve_builds_one_coordinator_view_per_side(monkeypatch):
    sides = []

    def counted(g, side):
        sides.append(side)
        return coordinator_view(g, side)

    # Patch every module-level binding, so no caller is missed.
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("tbdag")
                and getattr(module, "coordinator_view", None)
                is coordinator_view):
            monkeypatch.setattr(module, "coordinator_view", counted)
    solve(game("fig2"))
    assert sorted(sides) == [MAX, MIN]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_output_pins.py --record")
    pins, changed = dict(PINS), []
    for key, make in pin_cases():
        value = make()
        if key not in PINS:
            pins[key] = value
        elif value != PINS[key]:
            changed.append(key)
    if changed:
        raise SystemExit("existing pins would change, nothing written:\n"
                         + "\n".join(f"  {key}" for key in changed))
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pins) - len(PINS)} new pins in {PINS_PATH}")
